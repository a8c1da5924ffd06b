// Tests for the clustering distance between blocking-rate functions.
#include <gtest/gtest.h>

#include <cmath>

#include "core/distance.h"

namespace slb {
namespace {

RateFunction make_knee_function(Weight knee, double slope) {
  RateFunction f;
  for (Weight w = 10; w <= kWeightUnits; w += 10) {
    const double rate = w <= knee ? 0.0 : slope * (w - knee);
    f.observe(w, rate);
  }
  return f;
}

TEST(Distance, AlphaFormula) {
  static_assert(kDelta == 1e-6);
  // alpha = log(R) / |log(R * delta)| with R = 1000.
  const double expected = std::log(1000.0) / std::fabs(std::log(1e-3));
  EXPECT_NEAR(distance_alpha(), expected, 1e-12);
}

TEST(Distance, IdenticalFunctionsAreZero) {
  const RateFunction f = make_knee_function(400, 0.001);
  EXPECT_NEAR(function_distance(f, f), 0.0, 1e-12);
}

TEST(Distance, Symmetric) {
  const RateFunction a = make_knee_function(200, 0.001);
  const RateFunction b = make_knee_function(700, 0.002);
  EXPECT_DOUBLE_EQ(function_distance(a, b), function_distance(b, a));
}

TEST(Distance, GrowsWithKneeSeparation) {
  const RateFunction base = make_knee_function(200, 0.001);
  const RateFunction near = make_knee_function(250, 0.001);
  const RateFunction far = make_knee_function(800, 0.001);
  EXPECT_LT(function_distance(base, near), function_distance(base, far));
}

TEST(Distance, SeverelyBlockedVsFreeIsLarge) {
  // Paper Figure 7: severe blocking at 0.1% of load vs no blocking until
  // half the load. These must be very far apart.
  RateFunction severe;
  severe.observe(1, 0.9);
  const RateFunction relaxed = make_knee_function(500, 0.0001);
  EXPECT_GT(function_distance(severe, relaxed), 2.0);
}

TEST(Distance, BothFlatZeroFunctionsAreClose) {
  const RateFunction a;
  const RateFunction b;
  EXPECT_NEAR(function_distance(a, b), 0.0, 1e-12);
}

TEST(Distance, SameKneeDifferentSeverity) {
  const RateFunction mild = make_knee_function(500, 0.0001);
  const RateFunction steep = make_knee_function(500, 0.01);
  const double d = function_distance(mild, steep);
  EXPECT_GT(d, 0.1);  // distinguishable...
  EXPECT_LT(d, function_distance(make_knee_function(5, 0.01), mild));
}

TEST(Distance, TriangleLikeOrdering) {
  // Not a metric proof — just sanity that a middle function sits between
  // two extremes.
  const RateFunction lo = make_knee_function(100, 0.001);
  const RateFunction mid = make_knee_function(400, 0.001);
  const RateFunction hi = make_knee_function(900, 0.001);
  EXPECT_LT(function_distance(lo, mid), function_distance(lo, hi));
  EXPECT_LT(function_distance(mid, hi), function_distance(lo, hi));
}

}  // namespace
}  // namespace slb
