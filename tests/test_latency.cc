// Tests for end-to-end tuple latency tracking (an extension: the paper
// motivates latency but reports only throughput).
#include <gtest/gtest.h>

#include <memory>

#include "sim/region.h"

namespace slb::sim {
namespace {

RegionConfig base_config(int workers, DurationNs base_cost) {
  RegionConfig cfg;
  cfg.workers = workers;
  cfg.base_cost = base_cost;
  cfg.channel_buffer = 16;
  cfg.link_latency = micros(1);
  cfg.send_overhead = 100;
  cfg.sample_period = millis(5);
  return cfg;
}

TEST(Latency, LowerBoundedByServiceAndLink) {
  // Open-loop trickle: each tuple flows through an empty pipeline, so
  // latency ~= link latency + service time.
  RegionConfig cfg = base_config(1, micros(10));
  cfg.source_interval = micros(100);  // 10% utilization
  Region region(cfg, std::make_unique<RoundRobinPolicy>(1));
  region.run_for(millis(20));
  ASSERT_GT(region.latency().count(), 100u);
  EXPECT_GE(region.latency().min(), micros(11));
  EXPECT_LE(region.latency().mean(), micros(20));
}

TEST(Latency, GrowsWithQueueing) {
  // Closed loop saturates every buffer: latency ~= total occupancy /
  // throughput, far above the bare service time.
  RegionConfig cfg = base_config(1, micros(10));
  Region region(cfg, std::make_unique<RoundRobinPolicy>(1));
  region.run_for(millis(20));
  EXPECT_GT(region.latency().mean(), micros(100));
}

TEST(Latency, OpenLoopBacklogCountsTowardLatency) {
  // Offered load beyond capacity: the source backlog grows without bound
  // and tuple latency grows with it.
  RegionConfig cfg = base_config(1, micros(100));
  cfg.source_interval = micros(50);  // 2x overload
  Region region(cfg, std::make_unique<RoundRobinPolicy>(1));
  region.run_for(millis(20));
  const std::uint64_t backlog =
      region.splitter().source_backlog(region.now());
  EXPECT_GT(backlog, 150u);  // ~200 behind after 20 ms of 2x overload
  region.run_for(millis(20));
  EXPECT_GT(region.splitter().source_backlog(region.now()), backlog);
  EXPECT_GT(region.latency().max(), static_cast<double>(millis(5)));
}

TEST(Latency, SustainableOpenLoopHasBoundedBacklog) {
  RegionConfig cfg = base_config(2, micros(10));
  cfg.source_interval = micros(10);  // exactly half of 2-worker capacity
  Region region(cfg, std::make_unique<RoundRobinPolicy>(2));
  region.run_for(millis(50));
  EXPECT_LT(region.splitter().source_backlog(region.now()), 50u);
}

TEST(Latency, QuantilesAreOrdered) {
  Region region(base_config(2, micros(10)),
                std::make_unique<RoundRobinPolicy>(2));
  region.run_for(millis(50));
  const double p50 = region.latency_quantile(0.5);
  const double p99 = region.latency_quantile(0.99);
  EXPECT_GT(p50, 0.0);
  EXPECT_GE(p99, p50);
  EXPECT_GE(region.latency().max(), p99);
}

TEST(Latency, LbBeatsRrUnderImbalanceAtFixedOfferedLoad) {
  // Open loop at ~60% of the *balanced* capacity: round-robin cannot
  // sustain it (gated by the loaded worker) and its latency explodes;
  // LB re-balances and keeps latency bounded.
  auto run = [](std::unique_ptr<SplitPolicy> policy) {
    LoadProfile load(4);
    load.add_step(0, 0, 10.0);
    RegionConfig cfg = base_config(4, micros(10));
    cfg.source_interval = micros(5);  // 200K/s vs ~310K/s balanced cap
    Region region(cfg, std::move(policy), std::move(load));
    region.run_for(seconds(1));
    return region.latency_quantile(0.5);
  };
  const double rr_p50 = run(std::make_unique<RoundRobinPolicy>(4));
  const double lb_p50 =
      run(std::make_unique<LoadBalancingPolicy>(4, ControllerConfig{}));
  EXPECT_GT(rr_p50, 10.0 * lb_p50);
}

TEST(Latency, MidPipelineTuplesKeepTheirArrivalTime) {
  // Forwarded through a parallel region, created timestamps must ride
  // along (checked indirectly: flow-pipeline latency spans all stages).
  // Here: a region whose splitter re-stamps sequence numbers must not
  // reset `created` — emitted latency must exceed the upstream wait.
  RegionConfig cfg = base_config(1, micros(10));
  cfg.source_interval = micros(100);
  Region region(cfg, std::make_unique<RoundRobinPolicy>(1));
  region.run_for(millis(10));
  EXPECT_GT(region.latency().min(), 0.0);
}

}  // namespace
}  // namespace slb::sim
