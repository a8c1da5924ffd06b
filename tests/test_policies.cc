// Tests for the splitter routing policies and weight rounding.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "core/policies.h"
#include "obs/journal.h"
#include "util/time.h"

namespace slb {
namespace {

TEST(RoundRobin, CyclesThroughConnections) {
  RoundRobinPolicy rr(3);
  EXPECT_EQ(rr.pick_connection(), 0);
  EXPECT_EQ(rr.pick_connection(), 1);
  EXPECT_EQ(rr.pick_connection(), 2);
  EXPECT_EQ(rr.pick_connection(), 0);
}

TEST(RoundRobin, WeightsAreEven) {
  RoundRobinPolicy rr(3);
  EXPECT_EQ(rr.weights(), even_weights(3));
  EXPECT_FALSE(rr.reroute_on_block());
  EXPECT_EQ(rr.name(), "RR");
}

TEST(RoundRobin, IgnoresSamples) {
  RoundRobinPolicy rr(2);
  const std::vector<DurationNs> counters{seconds(1), 0};
  rr.on_sample(seconds(1), counters);
  rr.on_sample(seconds(2), counters);
  EXPECT_EQ(rr.weights(), even_weights(2));
}

TEST(Reroute, FlagsTransportRerouting) {
  RerouteOnBlockPolicy p(2);
  EXPECT_TRUE(p.reroute_on_block());
  EXPECT_EQ(p.name(), "RR-reroute");
}

TEST(LbPolicy, NameReflectsDecay) {
  ControllerConfig adaptive;
  adaptive.decay_factor = 0.9;
  EXPECT_EQ(BlockingRatePolicy(2, adaptive).name(), "LB-adaptive");
  ControllerConfig statc;
  statc.decay_factor = 1.0;
  EXPECT_EQ(BlockingRatePolicy(2, statc).name(), "LB-static");
}

TEST(LbPolicy, NameReflectsCapacityRule) {
  EXPECT_EQ(LoadBalancingPolicy(2).name(), "LB-capacity");
}

TEST(LbPolicy, RoutesByControllerWeights) {
  LoadBalancingPolicy p(2);
  std::vector<DurationNs> counters{0, 0};
  p.on_sample(seconds(1), counters);  // baseline
  // Connection 0 blocked the whole period at its even weight.
  counters[0] = seconds(1);
  p.on_sample(seconds(2), counters);
  EXPECT_LT(p.weights()[0], 500);
  // Routing follows: over 1000 picks connection 0 gets its weight's share.
  int zero_picks = 0;
  for (int i = 0; i < kWeightUnits; ++i) {
    if (p.pick_connection() == 0) ++zero_picks;
  }
  EXPECT_EQ(zero_picks, p.weights()[0]);
}

/// How drive() hands a policy each period.
enum class Feed {
  kBlocked,         // on_sample(now, blocked), as a wrapper forwarding it does
  kSample,          // on_sample(const PolicySample&) without readings
  kSampleReadings,  // on_sample(const PolicySample&) with capacity readings
};

/// Feeds `p` 20 periods in which connection 0 blocks 90% of each period
/// and connection 1 blocks 1%; readings, where fed, say 500 and 5000
/// tuples/s. Returns what the policy journaled.
obs::DecisionJournal drive(SplitPolicy& p, Feed feed) {
  obs::DecisionJournal journal;
  p.set_journal(&journal);
  std::vector<DurationNs> blocked{0, 0};
  const std::vector<double> readings{500.0, 5000.0};
  for (int t = 0; t < 20; ++t) {
    blocked[0] += millis(90);
    blocked[1] += millis(1);
    const TimeNs now = t * millis(100);
    if (feed == Feed::kBlocked) {
      p.on_sample(now, blocked);
    } else {
      p.on_sample(PolicySample{
          now, blocked,
          feed == Feed::kSampleReadings ? std::span<const double>(readings)
                                        : std::span<const double>{},
          {}});
    }
  }
  p.set_journal(nullptr);
  return journal;
}

TEST(BlockingRatePolicy, IgnoresCapacityReadings) {
  BlockingRatePolicy with(2);
  BlockingRatePolicy without(2);
  const obs::DecisionJournal a = drive(with, Feed::kSampleReadings);
  const obs::DecisionJournal b = drive(without, Feed::kSample);
  EXPECT_GT(a.entries(), 20u);
  EXPECT_EQ(a.lines(), b.lines());
  // The same readings do move LB-capacity.
  LoadBalancingPolicy capacity(2);
  EXPECT_NE(drive(capacity, Feed::kSampleReadings).digest(), a.digest());
}

TEST(LbPolicy, EveryOnSampleOverloadReturns) {
  // Each type forwards one overload to the other; neither may recurse.
  LoadBalancingPolicy capacity(2);
  BlockingRatePolicy paper(2);
  obs::MetricsRegistry registry;
  capacity.attach_metrics(registry, "capacity.");
  paper.attach_metrics(registry, "paper.");
  for (SplitPolicy* p : {static_cast<SplitPolicy*>(&capacity),
                         static_cast<SplitPolicy*>(&paper)}) {
    for (Feed feed : {Feed::kBlocked, Feed::kSample, Feed::kSampleReadings}) {
      drive(*p, feed);
      EXPECT_EQ(total_weight(p->weights()), kWeightUnits);
    }
  }
  EXPECT_GT(registry.counter("capacity.updates").value(), 0u);
  EXPECT_GT(registry.counter("paper.updates").value(), 0u);
}

TEST(Oracle, AppliesInitialPhaseImmediately) {
  OraclePolicy oracle(2, {{0, {3.0, 1.0}}});
  EXPECT_EQ(oracle.weights(), (WeightVector{750, 250}));
}

TEST(Oracle, SwitchesPhasesOnSchedule) {
  OraclePolicy oracle(2, {{0, {1.0, 1.0}}, {seconds(10), {1.0, 3.0}}});
  const std::vector<DurationNs> unused{0, 0};
  oracle.on_sample(seconds(5), unused);
  EXPECT_EQ(oracle.weights(), (WeightVector{500, 500}));
  oracle.on_sample(seconds(10), unused);
  EXPECT_EQ(oracle.weights(), (WeightVector{250, 750}));
}

TEST(Oracle, SkipsToLatestDuePhase) {
  OraclePolicy oracle(2, {{0, {1.0, 1.0}},
                          {seconds(10), {9.0, 1.0}},
                          {seconds(20), {1.0, 9.0}}});
  const std::vector<DurationNs> unused{0, 0};
  oracle.on_sample(seconds(30), unused);  // jumped past two phases
  EXPECT_EQ(oracle.weights(), (WeightVector{100, 900}));
}

TEST(Oracle, UnsortedScheduleIsSorted) {
  OraclePolicy oracle(2, {{seconds(10), {1.0, 3.0}}, {0, {1.0, 1.0}}});
  EXPECT_EQ(oracle.weights(), (WeightVector{500, 500}));
}

// ---- weights_from_shares -------------------------------------------------

TEST(WeightsFromShares, ExactProportions) {
  EXPECT_EQ(weights_from_shares({1.0, 1.0}), (WeightVector{500, 500}));
  EXPECT_EQ(weights_from_shares({3.0, 1.0}), (WeightVector{750, 250}));
}

TEST(WeightsFromShares, SumsToTotalDespiteRounding) {
  const WeightVector w = weights_from_shares({1.0, 1.0, 1.0});
  EXPECT_EQ(total_weight(w), kWeightUnits);
  for (Weight x : w) EXPECT_NEAR(x, 333, 1);
}

TEST(WeightsFromShares, ZeroShareGetsZeroWeight) {
  const WeightVector w = weights_from_shares({0.0, 2.0});
  EXPECT_EQ(w, (WeightVector{0, 1000}));
}

TEST(WeightsFromShares, UnnormalizedSharesAccepted) {
  EXPECT_EQ(weights_from_shares({10.0, 30.0}),
            weights_from_shares({1.0, 3.0}));
}

TEST(WeightsFromShares, ManyConnectionsStillExact) {
  std::vector<double> shares(64, 1.0);
  const WeightVector w = weights_from_shares(shares);
  EXPECT_EQ(total_weight(w), kWeightUnits);
  for (Weight x : w) EXPECT_NEAR(x, 15.6, 1.0);
}

TEST(WeightsFromShares, LargestRemainderWins) {
  // Shares 1:1:2 -> exact 250, 250, 500: no remainder case.
  // Shares 1:1:1:3 -> 166.7, 166.7, 166.7, 500 -> remainders promote the
  // first two .7s (ties by index).
  const WeightVector w = weights_from_shares({1, 1, 1, 3});
  EXPECT_EQ(total_weight(w), kWeightUnits);
  EXPECT_EQ(w[3], 500);
}

}  // namespace
}  // namespace slb
