// Tests for end-to-end tuple latency, measured by a sink at the region's
// output (an extension: the paper motivates latency but reports only
// throughput).
#include <gtest/gtest.h>

#include <memory>

#include "sim/region.h"
#include "sim/sink.h"
#include "util/stats.h"

namespace slb::sim {
namespace {

/// A region whose output ends in a CountingSink that measures end-to-end
/// latency (source arrival -> in-order emission), as flow::Pipeline's
/// terminal sink does: running mean/min/max over every tuple, plus a
/// 1-in-8 systematic sample for exact quantiles.
struct MeasuredRegion {
  MeasuredRegion(RegionConfig cfg, std::unique_ptr<SplitPolicy> policy,
                 LoadProfile load = {})
      : region(cfg, std::move(policy), std::move(load), {}, nullptr, {},
               nullptr, &sink) {
    sink.set_on_tuple([this](const Tuple& t) {
      const double lat = static_cast<double>(region.now() - t.created);
      latency.add(lat);
      if (sink.count() % 8 == 0) samples.add(lat);
    });
  }

  CountingSink sink;
  RunningStats latency;
  SampleSet samples;
  Region region;
};

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
  MeasuredRegion m(cfg, std::make_unique<RoundRobinPolicy>(1));
  m.region.run_for(millis(20));
  ASSERT_GT(m.latency.count(), 100u);
  EXPECT_GE(m.latency.min(), micros(11));
  EXPECT_LE(m.latency.mean(), micros(20));
}

TEST(Latency, GrowsWithQueueing) {
  // Closed loop saturates every buffer: latency ~= total occupancy /
  // throughput, far above the bare service time.
  RegionConfig cfg = base_config(1, micros(10));
  MeasuredRegion m(cfg, std::make_unique<RoundRobinPolicy>(1));
  m.region.run_for(millis(20));
  EXPECT_GT(m.latency.mean(), micros(100));
}

TEST(Latency, OpenLoopBacklogCountsTowardLatency) {
  // Offered load beyond capacity: the source backlog grows without bound
  // and tuple latency grows with it.
  RegionConfig cfg = base_config(1, micros(100));
  cfg.source_interval = micros(50);  // 2x overload
  MeasuredRegion m(cfg, std::make_unique<RoundRobinPolicy>(1));
  m.region.run_for(millis(20));
  const std::uint64_t backlog =
      m.region.splitter().source_backlog(m.region.now());
  EXPECT_GT(backlog, 150u);  // ~200 behind after 20 ms of 2x overload
  m.region.run_for(millis(20));
  EXPECT_GT(m.region.splitter().source_backlog(m.region.now()), backlog);
  EXPECT_GT(m.latency.max(), static_cast<double>(millis(5)));
}

TEST(Latency, SustainableOpenLoopHasBoundedBacklog) {
  RegionConfig cfg = base_config(2, micros(10));
  cfg.source_interval = micros(10);  // exactly half of 2-worker capacity
  Region region(cfg, std::make_unique<RoundRobinPolicy>(2));
  region.run_for(millis(50));
  EXPECT_LT(region.splitter().source_backlog(region.now()), 50u);
}

TEST(Latency, QuantilesAreOrdered) {
  MeasuredRegion m(base_config(2, micros(10)),
                   std::make_unique<RoundRobinPolicy>(2));
  m.region.run_for(millis(50));
  const double p50 = m.samples.quantile(0.5);
  const double p99 = m.samples.quantile(0.99);
  EXPECT_GT(p50, 0.0);
  EXPECT_GE(p99, p50);
  EXPECT_GE(m.latency.max(), p99);
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
    MeasuredRegion m(cfg, std::move(policy), std::move(load));
    m.region.run_for(seconds(1));
    return m.samples.quantile(0.5);
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
  MeasuredRegion m(cfg, std::make_unique<RoundRobinPolicy>(1));
  m.region.run_for(millis(10));
  EXPECT_GT(m.latency.min(), 0.0);
}

}  // namespace
}  // namespace slb::sim
