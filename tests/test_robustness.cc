// Hostile-input hardening for the numeric core (DESIGN.md §7 satellite):
// backwards clocks into the rate estimator, NaN/Inf observations into the
// rate functions, and degenerate (all-identical / all-zero / non-finite)
// F_j landscapes into both RAP solvers.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "core/rap.h"
#include "core/rate_estimator.h"
#include "core/rate_function.h"
#include "core/types.h"
#include "reference_core.h"
#include "util/time.h"

namespace slb {
namespace {

using testref::RapProblem;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// --- BlockingRateEstimator -------------------------------------------

TEST(EstimatorRobustness, BackwardsClockRebaselinesInsteadOfPoisoning) {
  BlockingRateEstimator est(2);
  std::vector<DurationNs> cum = {0, 0};
  est.ingest(millis(0), cum);
  cum = {millis(5), millis(2)};
  est.ingest(millis(10), cum);
  ASSERT_TRUE(est.ready());
  EXPECT_NEAR(est.smoothed_rates()[0], 0.5, 1e-9);

  // Clock jumps backwards (e.g. a substrate restart): the snapshot must
  // re-baseline, not produce negative/garbage rates.
  cum = {millis(6), millis(3)};
  est.ingest(millis(4), cum);
  EXPECT_GE(est.raw_rates()[0], 0.0);
  EXPECT_TRUE(std::isfinite(est.smoothed_rates()[0]));

  // And the estimator keeps working from the new baseline.
  cum = {millis(8), millis(3)};
  est.ingest(millis(14), cum);
  EXPECT_NEAR(est.raw_rates()[0], 0.2, 1e-9);
}

TEST(EstimatorRobustness, ZeroElapsedPeriodIsIgnored) {
  BlockingRateEstimator est(1);
  std::vector<DurationNs> cum = {0};
  est.ingest(millis(0), cum);
  cum = {millis(5)};
  est.ingest(millis(10), cum);
  const double before = est.smoothed_rates()[0];
  // A duplicate timestamp must not divide by zero or change the estimate.
  cum = {millis(7)};
  est.ingest(millis(10), cum);
  EXPECT_EQ(est.smoothed_rates()[0], before);
  EXPECT_TRUE(std::isfinite(est.smoothed_rates()[0]));
}

// --- RateFunction -----------------------------------------------------

TEST(RateFunctionRobustness, NonFiniteAndNegativeObservationsAreDropped) {
  RateFunction clean;
  RateFunction dirty;
  clean.observe(500, 0.4);
  dirty.observe(500, 0.4);

  dirty.observe(600, kNaN);
  dirty.observe(700, kInf);
  dirty.observe(400, -0.5);
  dirty.observe(300, 0.2, kNaN);
  dirty.observe(300, 0.2, -1.0);
  dirty.observe(0, 0.2);                  // out-of-domain weight
  dirty.observe(kWeightUnits + 1, 0.2);   // out-of-domain weight

  // The garbage left no trace: both functions fit identically.
  EXPECT_EQ(dirty.observed_points(), clean.observed_points());
  for (Weight w = 0; w <= kWeightUnits; w += 100) {
    EXPECT_EQ(dirty.value(w), clean.value(w)) << "w=" << w;
    EXPECT_TRUE(std::isfinite(dirty.value(w)));
  }
}

// --- RAP solvers ------------------------------------------------------

RapProblem flat_problem(int n, double level) {
  RapProblem p;
  p.vars.assign(static_cast<std::size_t>(n), RapVariable{});
  p.eval = [level](int, Weight) { return level; };
  return p;
}

void expect_uniform(const RapSolution& s, int n, const char* which) {
  ASSERT_TRUE(s.feasible) << which;
  EXPECT_EQ(std::accumulate(s.weights.begin(), s.weights.end(), Weight{0}),
            kWeightUnits)
      << which;
  const Weight lo = kWeightUnits / n;
  for (Weight w : s.weights) {
    EXPECT_GE(w, lo) << which;
    EXPECT_LE(w, lo + 1) << which;
  }
}

TEST(RapRobustness, AllZeroFunctionsYieldUniformPoint) {
  // No gradient anywhere: the only defensible answer is the even split,
  // not "dump the whole budget on index 0".
  for (int n : {2, 3, 4, 7}) {
    const RapProblem p = flat_problem(n, 0.0);
    expect_uniform(solve_fox(p), n, "fox");
    expect_uniform(solve_bisect(p), n, "bisect");
  }
}

TEST(RapRobustness, AllIdenticalNonZeroFunctionsYieldUniformPoint) {
  const RapProblem p = flat_problem(4, 0.37);
  expect_uniform(solve_fox(p), 4, "fox");
  expect_uniform(solve_bisect(p), 4, "bisect");
}

TEST(RapRobustness, NanEvaluationsDoNotPoisonTheSolvers) {
  // A hostile F_j returning NaN/Inf must not trip UB in the heap/sort
  // comparators; the solver treats such evaluations as "worst possible"
  // and still returns a full, feasible allocation.
  RapProblem p;
  p.vars.assign(3, RapVariable{});
  p.eval = [](int j, Weight w) -> double {
    if (j == 1) return w > 300 ? kNaN : 0.1;
    if (j == 2) return w > 500 ? kInf : 0.0;
    return static_cast<double>(w) / kWeightUnits;
  };
  for (const RapSolution& s : {solve_fox(p), solve_bisect(p)}) {
    ASSERT_TRUE(s.feasible);
    EXPECT_EQ(
        std::accumulate(s.weights.begin(), s.weights.end(), Weight{0}),
        kWeightUnits);
    for (Weight w : s.weights) {
      EXPECT_GE(w, 0);
      EXPECT_LE(w, kWeightUnits);
    }
  }
}

TEST(RapRobustness, AllNanStillAllocatesEverything) {
  RapProblem p;
  p.vars.assign(4, RapVariable{});
  p.eval = [](int, Weight) { return kNaN; };
  for (const RapSolution& s : {solve_fox(p), solve_bisect(p)}) {
    ASSERT_TRUE(s.feasible);
    EXPECT_EQ(
        std::accumulate(s.weights.begin(), s.weights.end(), Weight{0}),
        kWeightUnits);
  }
}

TEST(RapRobustness, BruteforceAgreesOnDegenerateInstances) {
  RapProblem p = flat_problem(3, 0.25);
  p.total = 9;
  for (auto& v : p.vars) v.max = 9;
  EXPECT_EQ(bruteforce_objective(p), 0.25);
  const RapSolution fox = solve_fox(p);
  EXPECT_EQ(fox.objective, 0.25);
}

}  // namespace
}  // namespace slb
