// Tests for the minimax RAP solvers: Fox greedy vs the bisection solver
// vs brute force, constraint handling, and tie behavior.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <vector>

#include "core/rap.h"
#include "reference_core.h"
#include "util/rng.h"

namespace slb {
namespace {

using testref::RapProblem;

/// Builds a problem over explicit per-variable value tables.
RapProblem table_problem(std::vector<std::vector<double>> tables,
                         Weight total) {
  RapProblem p;
  p.total = total;
  p.vars.resize(tables.size());
  for (std::size_t j = 0; j < tables.size(); ++j) {
    p.vars[j].min = 0;
    p.vars[j].max = static_cast<Weight>(tables[j].size()) - 1;
  }
  p.eval = [tables = std::move(tables)](int j, Weight w) {
    return tables[static_cast<std::size_t>(j)][static_cast<std::size_t>(w)];
  };
  return p;
}

TEST(Fox, TrivialSingleVariable) {
  RapProblem p = table_problem({{0, 1, 2, 3, 4, 5}}, 5);
  const RapSolution s = solve_fox(p);
  EXPECT_TRUE(s.feasible);
  EXPECT_EQ(s.weights, WeightVector{5});
  EXPECT_DOUBLE_EQ(s.objective, 5.0);
}

TEST(Fox, PrefersCheaperVariable) {
  // Variable 0 ramps fast, variable 1 is free until 3.
  RapProblem p = table_problem({{0, 10, 20, 30}, {0, 0, 0, 0}}, 3);
  const RapSolution s = solve_fox(p);
  EXPECT_TRUE(s.feasible);
  EXPECT_EQ(s.weights, (WeightVector{0, 3}));
  EXPECT_DOUBLE_EQ(s.objective, 0.0);
}

TEST(Fox, BalancesLinearFunctions) {
  // f0(w) = 2w, f1(w) = w: optimum puts twice as much on variable 1.
  RapProblem p;
  p.total = 9;
  p.vars = {{0, 9}, {0, 9}};
  p.eval = [](int j, Weight w) {
    return j == 0 ? 2.0 * w : 1.0 * w;
  };
  const RapSolution s = solve_fox(p);
  EXPECT_TRUE(s.feasible);
  EXPECT_EQ(s.weights[0], 3);
  EXPECT_EQ(s.weights[1], 6);
  EXPECT_DOUBLE_EQ(s.objective, 6.0);
}

TEST(Fox, RespectsMinimumBounds) {
  RapProblem p;
  p.total = 10;
  p.vars = {{4, 10}, {0, 10}};
  p.eval = [](int j, Weight w) { return j == 0 ? 100.0 * w : 1.0 * w; };
  const RapSolution s = solve_fox(p);
  EXPECT_TRUE(s.feasible);
  EXPECT_EQ(s.weights[0], 4);  // pinned at its minimum despite high cost
  EXPECT_EQ(s.weights[1], 6);
}

TEST(Fox, RespectsMaximumBounds) {
  RapProblem p;
  p.total = 10;
  p.vars = {{0, 3}, {0, 10}};
  p.eval = [](int j, Weight w) { return j == 0 ? 0.0 : 1.0 * w; };
  const RapSolution s = solve_fox(p);
  EXPECT_TRUE(s.feasible);
  EXPECT_EQ(s.weights[0], 3);  // capped even though it is free
  EXPECT_EQ(s.weights[1], 7);
}

TEST(Fox, InfeasibleWhenMinimaExceedTotal) {
  RapProblem p;
  p.total = 5;
  p.vars = {{4, 10}, {4, 10}};
  p.eval = [](int, Weight w) { return 1.0 * w; };
  const RapSolution s = solve_fox(p);
  EXPECT_FALSE(s.feasible);
}

TEST(Fox, InfeasibleWhenMaximaBelowTotal) {
  RapProblem p;
  p.total = 100;
  p.vars = {{0, 10}, {0, 10}};
  p.eval = [](int, Weight w) { return 1.0 * w; };
  const RapSolution s = solve_fox(p);
  EXPECT_FALSE(s.feasible);
  EXPECT_EQ(total_weight(s.weights), 20);  // best effort
}

TEST(Fox, IdenticalZeroFunctionsSpreadEvenly) {
  // The startup case: no blocking observed anywhere. The solver must not
  // starve any variable (regression test for the lexicographic tie-break
  // pathology found with the threaded runtime).
  RapProblem p;
  p.total = 1000;
  p.vars.assign(4, RapVariable{0, 1000});
  p.eval = [](int, Weight) { return 0.0; };
  const RapSolution s = solve_fox(p);
  ASSERT_TRUE(s.feasible);
  for (Weight w : s.weights) EXPECT_EQ(w, 250);
}

TEST(Fox, ZeroTotalGivesAllZeros) {
  RapProblem p;
  p.total = 0;
  p.vars.assign(3, RapVariable{0, 10});
  p.eval = [](int, Weight w) { return 1.0 * w; };
  const RapSolution s = solve_fox(p);
  EXPECT_TRUE(s.feasible);
  EXPECT_EQ(s.weights, (WeightVector{0, 0, 0}));
}

TEST(Bisect, MatchesFoxOnSimpleInstance) {
  RapProblem p;
  p.total = 9;
  p.vars = {{0, 9}, {0, 9}};
  p.eval = [](int j, Weight w) { return j == 0 ? 2.0 * w : 1.0 * w; };
  const RapSolution fox = solve_fox(p);
  const RapSolution bis = solve_bisect(p);
  EXPECT_TRUE(bis.feasible);
  EXPECT_DOUBLE_EQ(bis.objective, fox.objective);
  EXPECT_EQ(total_weight(bis.weights), p.total);
}

TEST(Bisect, InfeasibleDetection) {
  RapProblem p;
  p.total = 50;
  p.vars = {{0, 10}, {0, 10}};
  p.eval = [](int, Weight w) { return 1.0 * w; };
  EXPECT_FALSE(solve_bisect(p).feasible);
}

// ---- randomized cross-validation ----------------------------------------

RapProblem random_monotone_problem(Rng& rng, int n, Weight domain,
                                   Weight total, bool with_bounds) {
  std::vector<std::vector<double>> tables;
  for (int j = 0; j < n; ++j) {
    std::vector<double> t(static_cast<std::size_t>(domain) + 1);
    double v = 0.0;
    for (auto& cell : t) {
      v += rng.uniform(0.0, 1.0) < 0.4 ? 0.0 : rng.uniform(0.0, 2.0);
      cell = v;
    }
    tables.push_back(std::move(t));
  }
  RapProblem p = table_problem(std::move(tables), total);
  if (with_bounds) {
    for (auto& v : p.vars) {
      v.min = static_cast<Weight>(rng.below(3));
      v.max =
          static_cast<Weight>(domain - static_cast<Weight>(rng.below(3)));
    }
  }
  return p;
}

class RapRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RapRandom, FoxMatchesBruteForceObjective) {
  Rng rng(GetParam());
  const int n = 2 + static_cast<int>(rng.below(3));       // 2..4 vars
  const Weight domain = 4 + static_cast<Weight>(rng.below(5));  // 4..8
  const Weight total = static_cast<Weight>(rng.below(
      static_cast<std::uint64_t>(n * domain + 1)));
  RapProblem p = random_monotone_problem(rng, n, domain, total, true);

  Weight min_sum = 0;
  Weight max_sum = 0;
  for (const auto& v : p.vars) {
    min_sum += v.min;
    max_sum += v.max;
  }
  if (min_sum > total || max_sum < total) return;  // infeasible instance

  const RapSolution fox = solve_fox(p);
  ASSERT_TRUE(fox.feasible);
  const double brute = bruteforce_objective(p);
  EXPECT_NEAR(fox.objective, brute, 1e-9);
}

TEST_P(RapRandom, BisectMatchesFoxObjective) {
  Rng rng(GetParam() ^ 0xdeadbeef);
  const int n = 2 + static_cast<int>(rng.below(4));
  const Weight domain = 6 + static_cast<Weight>(rng.below(8));
  const Weight total = static_cast<Weight>(
      1 + rng.below(static_cast<std::uint64_t>(n * domain)));
  RapProblem p = random_monotone_problem(rng, n, domain, total, false);

  const RapSolution fox = solve_fox(p);
  const RapSolution bis = solve_bisect(p);
  ASSERT_EQ(fox.feasible, bis.feasible);
  if (fox.feasible) {
    EXPECT_NEAR(fox.objective, bis.objective, 1e-9);
    EXPECT_EQ(total_weight(bis.weights), p.total);
  }
}

TEST_P(RapRandom, SolutionsRespectConstraints) {
  Rng rng(GetParam() ^ 0x777);
  const int n = 2 + static_cast<int>(rng.below(6));
  const Weight domain = 10;
  const Weight total = static_cast<Weight>(
      rng.below(static_cast<std::uint64_t>(n * domain + 1)));
  RapProblem p = random_monotone_problem(rng, n, domain, total, true);
  for (const RapSolution& s : {solve_fox(p), solve_bisect(p)}) {
    if (!s.feasible) continue;
    Weight sum = 0;
    for (std::size_t j = 0; j < s.weights.size(); ++j) {
      EXPECT_GE(s.weights[j], p.vars[j].min);
      EXPECT_LE(s.weights[j], p.vars[j].max);
      sum += s.weights[j];
    }
    EXPECT_EQ(sum, total);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RapRandom,
                         ::testing::Range<std::uint64_t>(0, 40));

TEST(RapScale, FullScaleInstanceSolvesQuickly) {
  // N=64 connections, R=1000 units: the production shape. Not a timing
  // assertion, just a "does not blow up" guard; the bench measures speed.
  RapProblem p;
  p.total = kWeightUnits;
  p.vars.assign(64, RapVariable{0, kWeightUnits});
  p.eval = [](int j, Weight w) {
    return static_cast<double>(w) * (1.0 + 0.01 * j);
  };
  const RapSolution s = solve_fox(p);
  EXPECT_TRUE(s.feasible);
  EXPECT_EQ(total_weight(s.weights), kWeightUnits);
  // Faster variables get more load.
  EXPECT_GT(s.weights.front(), s.weights.back());
}

}  // namespace
}  // namespace slb
