// Minimax separable resource-allocation problem (RAP) solvers
// (paper Section 5.2).
//
// The load-balancing optimization is:
//
//   minimize   max_j F_j(w_j)
//   subject to sum_j w_j = total,   m_j <= w_j <= M_j
//
// where each F_j is monotone non-decreasing in w_j and the w_j are
// integers (units of 0.1 %). Clustered connections (Section 5.3) stay one
// variable per member, each evaluating its cluster's function (DESIGN.md
// §2), so every unit of weight is one unit of the total.
//
// solve_fox is the greedy marginal-allocation algorithm attributed to Fox
// (1966), O(N + R log N) with a tournament tree: the production path, as
// in the paper. The bisection and brute-force solvers that cross-check it
// live with the tests (tests/reference_core.h).
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/types.h"

namespace slb {

/// Bounds for one decision variable.
struct RapVariable {
  Weight min = 0;
  Weight max = kWeightUnits;
};

/// Result of a solve.
struct RapSolution {
  /// Chosen per-variable weights.
  WeightVector weights;
  /// max_j eval(j, weights[j]).
  double objective = 0.0;
  /// False when the constraints cannot be met: either sum_j m_j > total,
  /// or sum_j M_j < total. weights still holds the closest attempt.
  bool feasible = false;
};

namespace rap_detail {

/// Asserts the bounds are well formed (debug builds only).
void validate(const std::vector<RapVariable>& vars, Weight total);
/// Whether sum_j m_j <= total <= sum_j M_j.
bool fox_feasible(const std::vector<RapVariable>& vars, Weight total);

/// Evaluation guard: a NaN or Inf from a poisoned rate function must not
/// reach the solvers' comparisons — NaN keys make std::sort undefined
/// behavior and break Fox's key order, and both solvers'
/// monotonicity-based searches mis-step on them. Treat any non-finite value as "infinitely
/// bad but still comparable".
template <class Eval>
double safe_eval(const Eval& eval, int j, Weight w) {
  const double v = eval(j, w);
  return std::isfinite(v) ? v : std::numeric_limits<double>::max();
}

template <class Eval>
double objective_of(const Eval& eval, const WeightVector& w) {
  double worst = 0.0;
  for (std::size_t j = 0; j < w.size(); ++j) {
    worst = std::max(worst, safe_eval(eval, static_cast<int>(j), w[j]));
  }
  return worst;
}

}  // namespace rap_detail

/// Greedy marginal-allocation (Fox) over `vars` and `total`, calling
/// `eval(j, w)` directly. Exact for monotone instances.
template <class Eval>
RapSolution solve_fox(const std::vector<RapVariable>& vars, Weight total,
                      const Eval& eval) {
  rap_detail::validate(vars, total);
  const int n = static_cast<int>(vars.size());
  RapSolution sol;
  sol.weights.resize(static_cast<std::size_t>(n));
  Weight allocated = 0;
  for (int j = 0; j < n; ++j) {
    sol.weights[static_cast<std::size_t>(j)] =
        vars[static_cast<std::size_t>(j)].min;
    allocated += vars[static_cast<std::size_t>(j)].min;
  }
  if (allocated > total) {
    // Minimum shares alone exceed the traffic: infeasible.
    sol.objective = rap_detail::objective_of(eval, sol.weights);
    sol.feasible = false;
    return sol;
  }

  // Each variable's pending unit is the key (value it would take at its
  // *next* unit, the weight it would reach, index), and the greedy takes
  // the smallest key. Keys never change while pending (eval is pure), so
  // no staleness handling is required: a fresh key replaces the taken one
  // after each increment. Ties break toward the variable currently
  // holding the *least* weight (then the lowest index): with identical
  // functions — e.g. at startup, before any blocking has been observed —
  // this yields an even spread instead of starving high indices.
  //
  // The keys are packed into one unsigned 128-bit integer each (the
  // value's bits mapped to an order-preserving integer, -0.0 folded into
  // +0.0 as == does), and a tournament tree over the variables holds the
  // minimum: each unit replays one leaf-to-root path of branch-free mins.
  using Key = unsigned __int128;
  constexpr Key kNoUnit = ~Key{0};
  const auto key_of = [](double value, Weight reached, int j) -> Key {
    std::uint64_t bits = std::bit_cast<std::uint64_t>(value + 0.0);
    bits = (bits >> 63) != 0 ? ~bits : bits | (std::uint64_t{1} << 63);
    return (Key{bits} << 64) |
           (std::uint64_t{static_cast<std::uint32_t>(reached)} << 32) |
           static_cast<std::uint32_t>(j);
  };
  const auto next_key = [&](int j) -> Key {
    const auto ju = static_cast<std::size_t>(j);
    const Weight next = sol.weights[ju] + 1;
    if (next > vars[ju].max) return kNoUnit;
    return key_of(rap_detail::safe_eval(eval, j, next), next, j);
  };

  std::size_t leaves = 1;
  while (leaves < static_cast<std::size_t>(n)) leaves *= 2;
  std::vector<Key> tree(2 * leaves, kNoUnit);
  for (int j = 0; j < n; ++j) {
    tree[leaves + static_cast<std::size_t>(j)] = next_key(j);
  }
  for (std::size_t node = leaves - 1; node >= 1; --node) {
    tree[node] = std::min(tree[2 * node], tree[2 * node + 1]);
  }

  Key top = tree[1];
  while (allocated < total && top != kNoUnit) {
    const auto ju = static_cast<std::size_t>(static_cast<std::uint32_t>(top));
    sol.weights[ju] += 1;
    allocated += 1;
    top = next_key(static_cast<int>(ju));
    // Replay the leaf's path, carrying the subtree minimum upward.
    std::size_t node = leaves + ju;
    tree[node] = top;
    for (; node > 1; node /= 2) {
      top = std::min(top, tree[node ^ 1]);
      tree[node / 2] = top;
    }
  }

  sol.objective = rap_detail::objective_of(eval, sol.weights);
  sol.feasible = rap_detail::fox_feasible(vars, total);
  return sol;
}

}  // namespace slb
