#include "core/rap.h"

#include <algorithm>
#include <cassert>
#include <cmath>
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

namespace {

using rap_detail::allocated_units;

double safe_eval(const RapProblem& p, int j, Weight w) {
  return rap_detail::safe_eval(p.eval, j, w);
}

double objective_of(const RapProblem& p, const WeightVector& w) {
  return rap_detail::objective_of(p.eval, w);
}

void validate(const RapProblem& p) {
  assert(p.eval);
  rap_detail::validate(p.vars, p.total);
}

}  // namespace

RapSolution solve_fox(const RapProblem& p) {
  assert(p.eval);
  return solve_fox(p.vars, p.total, p.eval);
}

RapSolution solve_bisect(const RapProblem& p) {
  validate(p);
  const int n = static_cast<int>(p.vars.size());
  RapSolution sol;
  sol.weights.resize(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    sol.weights[static_cast<std::size_t>(j)] =
        p.vars[static_cast<std::size_t>(j)].min;
  }
  sol.allocated = allocated_units(p.vars, sol.weights);
  if (sol.allocated > p.total) {
    sol.objective = objective_of(p, sol.weights);
    sol.feasible = false;
    return sol;
  }

  // Candidate objective values: every attainable F_j(w) in range. The
  // optimum must be one of them (or the mandatory floor max_j F_j(m_j)).
  std::vector<double> candidates;
  for (int j = 0; j < n; ++j) {
    const RapVariable& v = p.vars[static_cast<std::size_t>(j)];
    for (Weight w = v.min; w <= v.max; ++w) {
      candidates.push_back(safe_eval(p, j, w));
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  // cap_j(lambda): largest w in [m_j, M_j] with F_j(w) <= lambda, found by
  // binary search thanks to monotonicity. Returns m_j - 1 when even the
  // minimum exceeds lambda.
  auto cap = [&](int j, double lambda) -> Weight {
    const RapVariable& v = p.vars[static_cast<std::size_t>(j)];
    if (safe_eval(p, j, v.min) > lambda) return v.min - 1;
    Weight lo = v.min;
    Weight hi = v.max;
    while (lo < hi) {
      const Weight mid = lo + (hi - lo + 1) / 2;
      if (safe_eval(p, j, mid) <= lambda) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    return lo;
  };

  auto feasible_at = [&](double lambda) {
    Weight capacity = 0;
    for (int j = 0; j < n; ++j) {
      const Weight c = cap(j, lambda);
      if (c < p.vars[static_cast<std::size_t>(j)].min) return false;
      capacity += p.vars[static_cast<std::size_t>(j)].multiplicity * c;
      if (capacity >= p.total) return true;
    }
    return capacity >= p.total;
  };

  // Binary search the smallest feasible candidate.
  std::size_t lo = 0;
  std::size_t hi = candidates.size();  // one past the end == "none work"
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (feasible_at(candidates[mid])) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }

  // Round-robin fill toward per-variable limits, one unit each per pass.
  // A front-to-back fill would dump the whole budget on the lowest index
  // whenever the functions tie (all-zero / all-identical F_j, the common
  // degenerate case); spreading matches the greedy solver's tie-break and
  // returns the uniform point.
  auto fill_round_robin = [&](const std::vector<Weight>& limit) {
    bool progress = true;
    while (sol.allocated < p.total && progress) {
      progress = false;
      for (int j = 0; j < n && sol.allocated < p.total; ++j) {
        const auto ju = static_cast<std::size_t>(j);
        if (sol.weights[ju] < limit[ju] &&
            sol.allocated + p.vars[ju].multiplicity <= p.total) {
          sol.weights[ju] += 1;
          sol.allocated += p.vars[ju].multiplicity;
          progress = true;
        }
      }
    }
  };

  if (lo == candidates.size()) {
    // Even the loosest lambda cannot place all traffic: capacity-bound.
    std::vector<Weight> limit(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j) {
      limit[static_cast<std::size_t>(j)] = p.vars[static_cast<std::size_t>(j)].max;
    }
    fill_round_robin(limit);
    sol.objective = objective_of(p, sol.weights);
    sol.feasible = false;
    return sol;
  }

  const double lambda = candidates[lo];
  std::vector<Weight> limit(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    limit[static_cast<std::size_t>(j)] = cap(j, lambda);
  }
  fill_round_robin(limit);
  sol.objective = objective_of(p, sol.weights);
  Weight max_units = 0;
  for (const RapVariable& v : p.vars) max_units += v.multiplicity * v.max;
  int min_mult = std::numeric_limits<int>::max();
  for (const RapVariable& v : p.vars) {
    min_mult = std::min(min_mult, v.multiplicity);
  }
  sol.feasible =
      max_units >= p.total && (p.total - sol.allocated) < min_mult;
  return sol;
}

double bruteforce_objective(const RapProblem& p) {
  validate(p);
  const int n = static_cast<int>(p.vars.size());
  double best = std::numeric_limits<double>::infinity();
  WeightVector w(static_cast<std::size_t>(n), 0);

  // Depth-first enumeration of all assignments hitting the budget exactly
  // (or as close as multiplicities allow, mirroring the solvers).
  int min_mult = std::numeric_limits<int>::max();
  for (const RapVariable& v : p.vars) {
    min_mult = std::min(min_mult, v.multiplicity);
  }

  std::function<void(int, Weight, double)> go = [&](int j, Weight used,
                                                    double worst) {
    if (worst >= best) return;  // prune
    if (j == n) {
      if (p.total - used < min_mult && used <= p.total) {
        best = std::min(best, worst);
      }
      return;
    }
    const RapVariable& v = p.vars[static_cast<std::size_t>(j)];
    for (Weight x = v.min; x <= v.max; ++x) {
      const Weight next = used + v.multiplicity * x;
      if (next > p.total) break;
      go(j + 1, next, std::max(worst, safe_eval(p, j, x)));
    }
  };
  go(0, 0, 0.0);
  return best;
}

}  // namespace slb
