#include "core/rap.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace slb {

namespace rap_detail {

void validate(const std::vector<RapVariable>& vars, Weight total) {
  assert(total >= 0);
  for (const RapVariable& v : vars) {
    assert(v.min >= 0);
    assert(v.max >= v.min);
    assert(v.max <= kWeightUnits);
    assert(v.multiplicity >= 1);
    (void)v;
  }
  (void)total;
}

Weight allocated_units(const std::vector<RapVariable>& vars,
                       const WeightVector& w) {
  Weight sum = 0;
  for (std::size_t j = 0; j < vars.size(); ++j) {
    sum += vars[j].multiplicity * w[j];
  }
  return sum;
}

bool fox_feasible(const std::vector<RapVariable>& vars, Weight total,
                  Weight allocated) {
  // Feasible when the full traffic fits; with unit multiplicities the
  // greedy always lands exactly on total unless every variable is capped.
  Weight max_units = 0;
  int min_mult = std::numeric_limits<int>::max();
  for (const RapVariable& v : vars) {
    max_units += v.multiplicity * v.max;
    min_mult = std::min(min_mult, v.multiplicity);
  }
  if (max_units < total) return false;
  return allocated == total || total - allocated < min_mult;
}

}  // namespace rap_detail

}  // namespace slb
