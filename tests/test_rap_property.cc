// Property-based cross-validation of the minimax RAP solvers (paper
// Section 5.2): ~1000 seeded random instances with monotone non-decreasing
// objective tables over small grids, checked against the brute-force
// minimax optimum. Fox's greedy and the bisection solver must both land on
// the optimal objective whenever increments are uniform (unit
// multiplicities, or one shared cluster size dividing the budget), stay
// bounded below by the optimum for mixed cluster sizes, agree with each
// other on feasibility, and respect every constraint.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/rap.h"
#include "core/types.h"
#include "reference_core.h"
#include "util/rng.h"

namespace slb {
namespace {

using testref::RapProblem;

/// One random instance: per-variable monotone tables F_j over w in
/// [0, total], random bounds, optional multiplicities.
struct Instance {
  std::vector<std::vector<double>> tables;
  RapProblem problem;
};

/// Multiplicity regimes. kUniform keeps every variable at one shared
/// multiplicity c with c | total, which makes the clustered problem
/// isomorphic to a unit-multiplicity one (exact solvers stay exact).
/// kMixed draws independent multiplicities — there the integer shortfall
/// rule makes greedy/bisection heuristics, so only bounds are asserted.
enum class Mult { kUnit, kUniform, kMixed };

Instance make_instance(Rng& rng, Mult mult) {
  Instance inst;
  const int n = static_cast<int>(2 + rng.below(3));  // 2..4 vars
  Weight total = static_cast<Weight>(6 + rng.below(7));  // 6..12 units
  const int uniform_c =
      mult == Mult::kUniform ? static_cast<int>(1 + rng.below(3)) : 1;
  if (mult == Mult::kUniform) total *= uniform_c;  // keep c | total
  inst.tables.resize(static_cast<std::size_t>(n));
  inst.problem.vars.resize(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    auto& table = inst.tables[static_cast<std::size_t>(j)];
    table.resize(static_cast<std::size_t>(total) + 1);
    // Monotone non-decreasing by construction: random non-negative steps,
    // occasionally zero (flat stretches exercise tie-breaking).
    double v = rng.uniform(0.0, 1.0);
    for (Weight w = 0; w <= total; ++w) {
      table[static_cast<std::size_t>(w)] = v;
      if (!rng.chance(0.3)) v += rng.uniform(0.0, 2.0);
    }
    RapVariable& var = inst.problem.vars[static_cast<std::size_t>(j)];
    var.min = static_cast<Weight>(rng.below(3));          // 0..2
    var.max = static_cast<Weight>(
        var.min + 1 + rng.below(static_cast<std::uint64_t>(total)));
    if (var.max > total) var.max = total;
    switch (mult) {
      case Mult::kUnit:
        var.multiplicity = 1;
        break;
      case Mult::kUniform:
        var.multiplicity = uniform_c;
        break;
      case Mult::kMixed:
        var.multiplicity = static_cast<int>(1 + rng.below(3));  // 1..3
        break;
    }
  }
  inst.problem.total = total;
  // Capture the tables by value: the instance is returned and the lambda
  // must not dangle into the pre-move object.
  inst.problem.eval = [tables = inst.tables](int j, Weight w) {
    return tables[static_cast<std::size_t>(j)][static_cast<std::size_t>(w)];
  };
  return inst;
}

/// Feasibility from the constraint system alone.
bool constraints_feasible(const RapProblem& p) {
  long lo = 0;
  long hi = 0;
  for (const RapVariable& v : p.vars) {
    lo += static_cast<long>(v.min) * v.multiplicity;
    hi += static_cast<long>(v.max) * v.multiplicity;
  }
  return lo <= p.total && p.total <= hi;
}

void check_solution(const RapProblem& p, const RapSolution& s,
                    std::uint64_t seed, const char* solver) {
  ASSERT_EQ(s.weights.size(), p.vars.size()) << solver << " seed " << seed;
  double objective = 0.0;
  Weight allocated = 0;
  for (std::size_t j = 0; j < p.vars.size(); ++j) {
    const RapVariable& v = p.vars[j];
    EXPECT_GE(s.weights[j], v.min) << solver << " seed " << seed;
    EXPECT_LE(s.weights[j], v.max) << solver << " seed " << seed;
    objective = std::max(
        objective, p.eval(static_cast<int>(j), s.weights[j]));
    allocated += s.weights[j] * v.multiplicity;
  }
  EXPECT_DOUBLE_EQ(s.objective, objective) << solver << " seed " << seed;
  EXPECT_EQ(s.allocated, allocated) << solver << " seed " << seed;
  if (s.feasible) {
    // Feasible solutions land on the budget exactly, or short of it by
    // less than the smallest multiplicity (the solvers' declared
    // contract when multiplicities do not divide the total evenly).
    int min_mult = std::numeric_limits<int>::max();
    for (const RapVariable& v : p.vars) {
      min_mult = std::min(min_mult, v.multiplicity);
    }
    EXPECT_LT(p.total - allocated, min_mult) << solver << " seed " << seed;
    EXPECT_LE(allocated, p.total) << solver << " seed " << seed;
  }
}

void run_property_suite(Mult mult, int instances, std::uint64_t seed_base) {
  int feasible_count = 0;
  for (int i = 0; i < instances; ++i) {
    const std::uint64_t seed = seed_base + static_cast<std::uint64_t>(i) + 1u;
    Rng rng(seed);
    Instance inst = make_instance(rng, mult);
    const RapProblem& p = inst.problem;

    const RapSolution fox = solve_fox(p);
    const RapSolution bisect = solve_bisect(p);

    if (mult != Mult::kMixed) {
      // Unit or uniform multiplicities with c | total: feasibility is
      // exactly the constraint system's interval test, and both solvers
      // must agree on it.
      EXPECT_EQ(fox.feasible, constraints_feasible(p)) << "seed " << seed;
      EXPECT_EQ(fox.feasible, bisect.feasible) << "seed " << seed;
    }
    check_solution(p, fox, seed, "fox");
    check_solution(p, bisect, seed, "bisect");

    if (!fox.feasible || !bisect.feasible) continue;
    ++feasible_count;

    const double best = bruteforce_objective(p);
    if (mult == Mult::kMixed) {
      // Mixed multiplicities: marginal-allocation greedy loses its
      // exchange-argument exactness when increments have different
      // sizes, and the brute force additionally reaches shortfall
      // assignments (total - used < min multiplicity) the exact-fill
      // solvers never consider. Only the optimality *bound* holds: no
      // achieved objective can beat the exhaustive optimum.
      EXPECT_LE(best, fox.objective + 1e-12) << "fox seed " << seed;
      EXPECT_LE(best, bisect.objective + 1e-12) << "bisect seed " << seed;
      continue;
    }

    // Unit or uniform multiplicities dividing the budget: both solvers
    // must hit the brute-force minimax optimum exactly (the brute force
    // enumerates the same grid, so the optima are directly comparable).
    EXPECT_DOUBLE_EQ(fox.objective, best) << "fox seed " << seed;
    EXPECT_DOUBLE_EQ(bisect.objective, best) << "bisect seed " << seed;
  }
  // The generator must actually exercise the interesting (feasible) path
  // most of the time, or the suite silently degrades to bounds checks.
  EXPECT_GT(feasible_count, instances / 2);
}

TEST(RapProperty, FoxAndBisectMatchBruteforceFlat) {
  run_property_suite(Mult::kUnit, 700, 0);
}

TEST(RapProperty, FoxAndBisectMatchBruteforceUniformClusters) {
  run_property_suite(Mult::kUniform, 200, 300000);
}

TEST(RapProperty, FoxAndBisectBoundedByBruteforceMixedClusters) {
  run_property_suite(Mult::kMixed, 300, 500000);
}

TEST(RapProperty, InfeasibleInstancesAreFlagged) {
  // Demand below the lower bounds and above the upper bounds.
  RapProblem p;
  p.total = 4;
  p.vars = {{3, 5, 1}, {3, 5, 1}};  // sum of mins = 6 > 4
  p.eval = [](int, Weight w) { return static_cast<double>(w); };
  EXPECT_FALSE(solve_fox(p).feasible);
  EXPECT_FALSE(solve_bisect(p).feasible);

  p.vars = {{0, 1, 1}, {0, 1, 1}};  // sum of maxes = 2 < 4
  EXPECT_FALSE(solve_fox(p).feasible);
  EXPECT_FALSE(solve_bisect(p).feasible);
}

}  // namespace
}  // namespace slb
