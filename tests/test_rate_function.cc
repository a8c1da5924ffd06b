// Tests for the per-connection blocking-rate function F_j: raw-data
// smoothing, monotone fit, interpolation/extrapolation, knee detection,
// and the exploration decay.
#include <gtest/gtest.h>

#include <map>

#include "core/rate_function.h"
#include "util/rng.h"

namespace slb {
namespace {

TEST(RateFunction, FreshFunctionIsZeroEverywhere) {
  RateFunction f;
  EXPECT_DOUBLE_EQ(f.value(0), 0.0);
  EXPECT_DOUBLE_EQ(f.value(500), 0.0);
  EXPECT_DOUBLE_EQ(f.value(kWeightUnits), 0.0);
  EXPECT_EQ(f.observed_points(), 0);
  EXPECT_EQ(f.service_rate(), kWeightUnits);
}

TEST(RateFunction, OriginAlwaysZero) {
  RateFunction f;
  f.observe(1, 0.9);
  EXPECT_DOUBLE_EQ(f.value(0), 0.0);
  EXPECT_GT(f.value(1), 0.0);
}

TEST(RateFunction, ObservationAtZeroWeightIgnored) {
  RateFunction f;
  f.observe(0, 5.0);
  EXPECT_EQ(f.observed_points(), 0);
  EXPECT_DOUBLE_EQ(f.value(0), 0.0);
}

TEST(RateFunction, SinglePointLinearInterpolationFromOrigin) {
  RateFunction f;
  f.observe(500, 0.8);
  EXPECT_NEAR(f.value(250), 0.4, 1e-9);
  EXPECT_NEAR(f.value(500), 0.8, 1e-9);
}

TEST(RateFunction, ExtrapolatesLastSlope) {
  RateFunction f;
  f.observe(400, 0.4);
  f.observe(500, 0.5);
  // Slope 0.001/unit beyond 500.
  EXPECT_NEAR(f.value(600), 0.6, 1e-6);
  EXPECT_NEAR(f.value(1000), 1.0, 1e-6);
}

TEST(RateFunction, InterpolatesBetweenPoints) {
  RateFunction f;
  f.observe(200, 0.2);
  f.observe(600, 1.0);
  EXPECT_NEAR(f.value(400), 0.6, 1e-9);
}

TEST(RateFunction, MixAlphaBlendsRepeatObservations) {
  RateFunctionConfig cfg;
  cfg.mix_alpha = 0.5;
  RateFunction f(cfg);
  f.observe(300, 1.0);
  f.observe(300, 0.0);
  EXPECT_NEAR(f.value(300), 0.5, 1e-9);
  EXPECT_EQ(f.observed_points(), 1);
}

TEST(RateFunction, FittedIsAlwaysMonotone) {
  Rng rng(42);
  RateFunction f;
  for (int i = 0; i < 200; ++i) {
    f.observe(static_cast<Weight>(1 + rng.below(kWeightUnits)),
              rng.uniform(0.0, 1.0));
  }
  for (Weight w = 1; w <= kWeightUnits; ++w) {
    EXPECT_GE(f.value(w), f.value(w - 1) - 1e-12);
  }
}

TEST(RateFunction, NonMonotoneRawDataIsForcedMonotone) {
  RateFunction f;
  f.observe(200, 0.9);  // high blocking at low weight
  f.observe(800, 0.1);  // low blocking at high weight: contradiction
  EXPECT_LE(f.value(200), f.value(800) + 1e-12);
}

TEST(RateFunction, ServiceRateIsFirstBlockingWeight) {
  RateFunction f;
  f.observe(300, 0.0, 1.0);
  f.observe(500, 0.6);
  // Zero until 300, then ramps up: the knee is just past 300.
  const Weight knee = f.service_rate();
  EXPECT_GT(knee, 300);
  EXPECT_LE(knee, 320);
}

TEST(RateFunction, ServiceRateOfSaturatedConnectionIsLow) {
  RateFunction f;
  f.observe(1, 0.9);  // blocks at 0.1% of the load
  EXPECT_EQ(f.service_rate(), 1);
}

TEST(RateFunction, DecayAboveReducesOnlyHigherWeights) {
  RateFunction f;
  f.observe(200, 0.4);
  f.observe(800, 0.8);
  const double at_200 = f.value(200);
  const double at_800 = f.value(800);
  f.decay_above(500, 0.5);
  EXPECT_NEAR(f.value(200), at_200, 1e-9);
  EXPECT_NEAR(f.value(800), at_800 * 0.5, 1e-9);
}

TEST(RateFunction, RepeatedDecayFlattensFunction) {
  RateFunction f;
  f.observe(100, 0.1);
  f.observe(900, 0.9);
  for (int i = 0; i < 200; ++i) f.decay_above(100, 0.9);
  // Beyond the held weight the function decays toward the value at the
  // held weight (monotone regression stops it from dipping below).
  EXPECT_LE(f.value(900), f.value(100) + 1e-6);
  EXPECT_GE(f.value(900), f.value(100) - 1e-6);
}

TEST(RateFunction, DecayDoesNothingWithoutHigherPoints) {
  RateFunction f;
  f.observe(100, 0.5);
  const double before = f.value(100);
  f.decay_above(100, 0.5);  // no raw point above 100
  EXPECT_DOUBLE_EQ(f.value(100), before);
}

TEST(RateFunction, ResetClearsEvidence) {
  RateFunction f;
  f.observe(500, 0.7);
  f.reset();
  EXPECT_EQ(f.observed_points(), 0);
  EXPECT_DOUBLE_EQ(f.value(500), 0.0);
}

TEST(RateFunction, LoadRawReplacesData) {
  RateFunction donor;
  donor.observe(400, 0.4);
  RateFunction f;
  f.observe(100, 0.9);
  f.load_raw(donor.raw());
  EXPECT_EQ(f.observed_points(), 1);
  EXPECT_NEAR(f.value(400), 0.4, 1e-9);
  EXPECT_LT(f.value(100), 0.2);  // old contradictory point gone
}

TEST(RateFunction, LoadRawDropsOriginEntry) {
  std::map<Weight, RawPoint> raw;
  raw[0] = RawPoint{5.0, 1.0};  // bogus origin evidence must be ignored
  raw[100] = RawPoint{0.1, 1.0};
  RateFunction f;
  f.load_raw(raw);
  EXPECT_EQ(f.observed_points(), 1);
  EXPECT_DOUBLE_EQ(f.value(0), 0.0);
}

TEST(RateFunction, PointWeightIsCapped) {
  RateFunctionConfig cfg;
  cfg.max_point_weight = 2.0;
  RateFunction f(cfg);
  for (int i = 0; i < 100; ++i) f.observe(300, 1.0);
  ASSERT_EQ(f.raw().size(), 1u);
  EXPECT_EQ(f.raw().front().first, 300);
  EXPECT_LE(f.raw().front().second.weight, 2.0);
}

TEST(RateFunction, ZeroSampleWeightObservationIgnored) {
  RateFunction f;
  f.observe(300, 1.0, 0.0);
  EXPECT_EQ(f.observed_points(), 0);
}

// Sweep: a function observed from a synthetic "true" knee function should
// recover the knee approximately, for a range of knee positions.
class KneeSweep : public ::testing::TestWithParam<Weight> {};

TEST_P(KneeSweep, RecoversKneeLocation) {
  const Weight true_knee = GetParam();
  RateFunction f;
  for (Weight w = 50; w <= kWeightUnits; w += 50) {
    const double rate =
        w <= true_knee ? 0.0
                       : 0.001 * static_cast<double>(w - true_knee);
    f.observe(w, rate);
  }
  EXPECT_NEAR(f.service_rate(), true_knee, 51);
}

INSTANTIATE_TEST_SUITE_P(Knees, KneeSweep,
                         ::testing::Values(100, 250, 400, 500, 700, 900));

}  // namespace
}  // namespace slb
