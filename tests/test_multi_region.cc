// Tests for dynamically shared hosts and multi-region clusters — the
// paper's Section 8 future work: several parallel regions whose purely
// local controllers adapt to each other's load through the hosts they
// share.
#include <gtest/gtest.h>

#include <memory>

#include "sim/region.h"
#include "sim/shared_host.h"

namespace slb::sim {
namespace {

// ------------------------------------------------------- SharedHostSet --

TEST(SharedHost, IdleHostHasUnitFactor) {
  SharedHostSet hosts({{1.0, 4}});
  EXPECT_EQ(hosts.busy(0), 0);
  EXPECT_DOUBLE_EQ(hosts.peek_factor(0), 1.0);
}

TEST(SharedHost, SpeedDividesFactor) {
  SharedHostSet hosts({{2.0, 4}});
  EXPECT_DOUBLE_EQ(hosts.peek_factor(0), 0.5);
}

TEST(SharedHost, OversubscriptionKicksInPastThreads) {
  SharedHostSet hosts({{1.0, 2}});
  EXPECT_DOUBLE_EQ(hosts.begin_service(0), 1.0);  // busy 1 of 2
  EXPECT_DOUBLE_EQ(hosts.begin_service(0), 1.0);  // busy 2 of 2
  EXPECT_DOUBLE_EQ(hosts.begin_service(0), 1.5);  // busy 3 of 2
  EXPECT_DOUBLE_EQ(hosts.begin_service(0), 2.0);  // busy 4 of 2
  EXPECT_EQ(hosts.busy(0), 4);
}

TEST(SharedHost, EndServiceReleasesSlots) {
  SharedHostSet hosts({{1.0, 1}});
  (void)hosts.begin_service(0);
  (void)hosts.begin_service(0);
  EXPECT_EQ(hosts.busy(0), 2);
  hosts.end_service(0);
  hosts.end_service(0);
  EXPECT_EQ(hosts.busy(0), 0);
  EXPECT_DOUBLE_EQ(hosts.peek_factor(0), 1.0);
}

TEST(SharedHost, HostsAreIndependent) {
  SharedHostSet hosts({{1.0, 1}, {1.0, 1}});
  (void)hosts.begin_service(0);
  (void)hosts.begin_service(0);
  EXPECT_EQ(hosts.busy(0), 2);
  EXPECT_EQ(hosts.busy(1), 0);
  EXPECT_DOUBLE_EQ(hosts.peek_factor(1), 1.0);
}

// --------------------------------------------------- worker integration --

RegionConfig small_region(int workers, DurationNs base_cost) {
  RegionConfig cfg;
  cfg.workers = workers;
  cfg.base_cost = base_cost;
  cfg.channel_buffer = 16;
  cfg.link_latency = micros(1);
  cfg.send_overhead = 100;
  cfg.sample_period = millis(5);
  return cfg;
}

TEST(SharedRegion, WorkersPayTheSharedFactor) {
  // One worker alone on a 1-thread host processes at base cost; its
  // throughput halves when a synthetic co-tenant occupies the host.
  SharedHostSet hosts({{1.0, 1}});
  Region region(small_region(1, micros(10)),
                std::make_unique<RoundRobinPolicy>(1), {}, {}, nullptr,
                SharedPlacement{&hosts, {0}});
  region.run_for(millis(50));
  const std::uint64_t alone = region.emitted();
  // ~5000 tuples in 50 ms at 10 us each.
  EXPECT_GT(alone, 4000u);

  SharedHostSet contended({{1.0, 1}});
  (void)contended.begin_service(0);  // a permanent co-tenant
  Region busy_region(small_region(1, micros(10)),
                     std::make_unique<RoundRobinPolicy>(1), {}, {}, nullptr,
                     SharedPlacement{&contended, {0}});
  busy_region.run_for(millis(50));
  EXPECT_LT(busy_region.emitted(), alone * 6 / 10);
  EXPECT_GT(busy_region.emitted(), alone * 4 / 10);
}

// ---------------------------------------------------- two-region cluster --

struct Cluster {
  Simulator sim;
  SharedHostSet hosts;
  std::unique_ptr<Region> a;
  std::unique_ptr<Region> b;

  /// Region A: 4 workers, 2 on host 0 + 2 on host 1, LB-adaptive.
  /// Region B: 4 workers, all on host 0; heavy tuples so when it starts
  /// it swamps host 0.
  explicit Cluster(DurationNs b_cost)
      : hosts({{1.0, 4}, {1.0, 4}}) {
    a = std::make_unique<Region>(
        small_region(4, micros(10)),
        std::make_unique<LoadBalancingPolicy>(4, ControllerConfig{}), /*load=*/
        LoadProfile{}, HostModel{}, &sim,
        SharedPlacement{&hosts, {0, 0, 1, 1}});
    b = std::make_unique<Region>(
        small_region(4, b_cost), std::make_unique<RoundRobinPolicy>(4),
        LoadProfile{}, HostModel{}, &sim,
        SharedPlacement{&hosts, {0, 0, 0, 0}});
  }
};

TEST(MultiRegion, RegionsShareOneTimeline) {
  Cluster cluster(micros(10));
  cluster.a->start();
  cluster.b->start();
  cluster.sim.run_until(millis(20));
  EXPECT_GT(cluster.a->emitted(), 0u);
  EXPECT_GT(cluster.b->emitted(), 0u);
  EXPECT_EQ(cluster.a->now(), cluster.b->now());
}

TEST(MultiRegion, CoTenantLoadShiftsLocalWeights) {
  // Region B's 4 heavy workers sit on host 0 alongside region A's
  // workers 0 and 1. A's controller — which knows nothing about B —
  // should shift weight toward its workers on the uncontended host 1.
  Cluster cluster(micros(200));  // B's tuples are heavy: host 0 stays hot
  cluster.a->start();
  cluster.b->start();
  cluster.sim.run_until(seconds(2));

  const WeightVector& w = cluster.a->policy().weights();
  const Weight on_host0 = w[0] + w[1];
  const Weight on_host1 = w[2] + w[3];
  EXPECT_LT(on_host0, on_host1);
}

TEST(MultiRegion, QuietCoTenantLeavesWeightsEven) {
  // With B processing trivial tuples, host 0 is barely contended and A
  // should stay near an even split.
  Cluster cluster(micros(1));
  cluster.a->start();
  cluster.b->start();
  cluster.sim.run_until(seconds(2));
  const WeightVector& w = cluster.a->policy().weights();
  const Weight on_host0 = w[0] + w[1];
  EXPECT_NEAR(on_host0, 500, 150);
}

}  // namespace
}  // namespace slb::sim
