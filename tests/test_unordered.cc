// Tests for unordered regions (parallel sinks, Section 4.1 footnote) and
// the throughput-based policy extension — including a runnable proof of
// the paper's Section 4.3 claim: per-connection throughput is informative
// exactly when the ordered merge is absent.
#include <gtest/gtest.h>

#include <memory>

#include "obs/metrics.h"
#include "sim/region.h"

namespace slb::sim {
namespace {

RegionConfig small_region(int workers, DurationNs base_cost, bool ordered) {
  RegionConfig cfg;
  cfg.workers = workers;
  cfg.base_cost = base_cost;
  cfg.channel_buffer = 16;
  cfg.link_latency = micros(1);
  cfg.send_overhead = 100;
  cfg.sample_period = millis(5);
  cfg.ordered = ordered;
  return cfg;
}

TEST(UnorderedMerger, ReleasesImmediately) {
  Simulator sim;
  obs::MetricsRegistry metrics;
  Merger m(&sim, metrics, 2, 4, /*ordered=*/false);
  EXPECT_FALSE(m.ordered());
  // Sequence 5 arrives before 0..4; an ordered merger would hold it.
  EXPECT_TRUE(m.try_push(1, Tuple{5}));
  EXPECT_EQ(m.emitted(), 1u);
  EXPECT_EQ(m.emitted_from(1), 1u);
  EXPECT_EQ(m.queue_size(1), 0u);
}

TEST(UnorderedMerger, NeverRejects) {
  Simulator sim;
  obs::MetricsRegistry metrics;
  Merger m(&sim, metrics, 1, 1, /*ordered=*/false);
  for (std::uint64_t s = 100; s < 200; ++s) {
    ASSERT_TRUE(m.try_push(0, Tuple{s}));
  }
  EXPECT_EQ(m.emitted(), 100u);
}

TEST(OrderedMerger, TracksPerConnectionDeliveries) {
  Simulator sim;
  obs::MetricsRegistry metrics;
  Merger m(&sim, metrics, 2, 16);
  EXPECT_TRUE(m.try_push(0, Tuple{0}));
  EXPECT_TRUE(m.try_push(1, Tuple{1}));
  EXPECT_TRUE(m.try_push(0, Tuple{2}));
  EXPECT_EQ(m.emitted_from(0), 2u);
  EXPECT_EQ(m.emitted_from(1), 1u);
}

TEST(UnorderedRegion, SplitterStillEnforcesItsMixWithoutRerouting) {
  // Subtle but important: removing the merge alone changes little,
  // because the single-threaded splitter blocks on the slow connection
  // either way and thereby enforces its round-robin input mix (the deep
  // version of Section 4.3).
  auto run = [](bool ordered) {
    LoadProfile load(2);
    load.add_step(0, 0, 50.0);
    Region region(small_region(2, micros(10), ordered),
                  std::make_unique<RoundRobinPolicy>(2), std::move(load));
    region.run_for(millis(100));
    return region.emitted();
  };
  const std::uint64_t ordered = run(true);
  const std::uint64_t unordered = run(false);
  EXPECT_NEAR(static_cast<double>(unordered), static_cast<double>(ordered),
              0.2 * static_cast<double>(ordered));
}

TEST(UnorderedRegion, RerouteSetsTheFastWorkersFree) {
  // With parallel sinks + transport-level re-routing, diverted tuples
  // exit freely: the region runs at aggregate capacity instead of
  // N x slowest.
  auto run = [](bool ordered) {
    LoadProfile load(2);
    load.add_step(0, 0, 50.0);
    RegionConfig cfg = small_region(2, micros(10), ordered);
    cfg.merge_buffer = 32;  // bounded: ordered regions choke re-routing
    Region region(cfg, std::make_unique<RerouteOnBlockPolicy>(2),
                  std::move(load));
    region.run_for(millis(100));
    return region.emitted();
  };
  const std::uint64_t ordered = run(true);
  const std::uint64_t unordered = run(false);
  EXPECT_GT(unordered, 3 * ordered);
}

TEST(UnorderedRegion, PerConnectionDeliveryRevealsCapacity) {
  // Without the merge and with re-routing, connection deliveries track
  // capacity (the slow connection delivers far less), not the weights.
  LoadProfile load(2);
  load.add_step(0, 0, 10.0);
  Region region(small_region(2, micros(10), /*ordered=*/false),
                std::make_unique<RerouteOnBlockPolicy>(2), std::move(load));
  region.run_for(millis(100));
  const std::uint64_t slow = region.merger().emitted_from(0);
  const std::uint64_t fast = region.merger().emitted_from(1);
  EXPECT_GT(fast, 5 * slow);
}

TEST(OrderedRegion, PerConnectionDeliveryMatchesWeightsNotCapacity) {
  // Section 4.3 as stated: with the merge, deliveries equal the weight
  // split even under a 10x capacity imbalance.
  LoadProfile load(2);
  load.add_step(0, 0, 10.0);
  Region region(small_region(2, micros(10), /*ordered=*/true),
                std::make_unique<RoundRobinPolicy>(2), std::move(load));
  region.run_for(millis(100));
  const double ratio =
      static_cast<double>(region.merger().emitted_from(0)) /
      static_cast<double>(region.merger().emitted_from(1));
  EXPECT_NEAR(ratio, 1.0, 0.1);
}

TEST(ThroughputPolicy, BalancesUnorderedRegion) {
  LoadProfile load(2);
  load.add_step(0, 0, 10.0);
  Region region(small_region(2, micros(10), /*ordered=*/false),
                std::make_unique<ThroughputBalancedPolicy>(2),
                std::move(load));
  region.run_for(seconds(1));
  // True capacities are 1:10; the policy should end far from even.
  EXPECT_LT(region.policy().weights()[0], 250);
  EXPECT_GT(region.policy().weights()[1], 750);
}

TEST(ThroughputPolicy, MostlyBlindInOrderedRegionWithBoundedMerger) {
  // In an ordered region with bounded buffering, re-routing is choked
  // (Section 4.4) and deliveries approximately mirror the input mix
  // (Section 4.3), so the policy ends far from the true 1:10 capacity
  // split that the unordered case finds.
  LoadProfile load(2);
  load.add_step(0, 0, 10.0);
  RegionConfig cfg = small_region(2, micros(10), /*ordered=*/true);
  cfg.merge_buffer = 32;
  Region region(cfg, std::make_unique<ThroughputBalancedPolicy>(2),
                std::move(load));
  region.run_for(seconds(1));
  EXPECT_GT(region.policy().weights()[0], 300);
}

TEST(ThroughputPolicy, LbStillWorksOnUnorderedRegion) {
  // The blocking-rate scheme is signal-compatible with both region kinds.
  LoadProfile load(2);
  load.add_step(0, 0, 10.0);
  Region region(small_region(2, micros(10), /*ordered=*/false),
                std::make_unique<LoadBalancingPolicy>(2, ControllerConfig{}),
                std::move(load));
  region.run_for(seconds(1));
  EXPECT_LT(region.policy().weights()[0], 250);
}

TEST(ThroughputPolicy, NameAndDefaults) {
  ThroughputBalancedPolicy p(3);
  EXPECT_EQ(p.name(), "TP-balance");
  EXPECT_EQ(total_weight(p.weights()), kWeightUnits);
  EXPECT_TRUE(p.reroute_on_block());  // needed for deliveries to inform
  ThroughputBalancedPolicy no_reroute(3, 0.5, false);
  EXPECT_FALSE(no_reroute.reroute_on_block());
}

TEST(ThroughputPolicy, IgnoresEmptyPeriods) {
  ThroughputBalancedPolicy p(2);
  const std::vector<std::uint64_t> zero{0, 0};
  p.on_throughput(seconds(1), zero);
  p.on_throughput(seconds(2), zero);  // no deliveries at all
  EXPECT_EQ(p.weights(), even_weights(2));
}

}  // namespace
}  // namespace slb::sim
