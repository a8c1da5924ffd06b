#include "core/rap.h"

#include <cassert>

namespace slb {

namespace rap_detail {

void validate(const std::vector<RapVariable>& vars, Weight total) {
  assert(total >= 0);
  for (const RapVariable& v : vars) {
    assert(v.min >= 0);
    assert(v.max >= v.min);
    assert(v.max <= kWeightUnits);
    (void)v;
  }
  (void)total;
}

bool fox_feasible(const std::vector<RapVariable>& vars, Weight total) {
  Weight lo = 0;
  Weight hi = 0;
  for (const RapVariable& v : vars) {
    lo += v.min;
    hi += v.max;
  }
  return lo <= total && total <= hi;
}

}  // namespace rap_detail

}  // namespace slb
