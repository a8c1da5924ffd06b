// The capacity rule on the loopback-TCP runtime: the region reads its
// workers' service histograms every period, publishes what they say, and
// allocates from it without starving a live channel.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/policies.h"
#include "runtime/local_region.h"
#include "util/time.h"

namespace slb {
namespace {

using rt::LocalRegion;
using rt::LocalRegionConfig;
using rt::LocalSample;

LocalRegionConfig timed_config(int workers, long multiplies) {
  LocalRegionConfig cfg;
  cfg.workers = workers;
  cfg.multiplies = multiplies;
  cfg.work_mode = rt::WorkMode::kTimed;
  cfg.sample_period = millis(50);
  return cfg;
}

TEST(RuntimeCapacity, GaugesReadEachWorkersCapacity) {
  // Worker 0 serves each tuple 10x slower: its capacity gauge reads about
  // a tenth of worker 1's, whatever the weights, and the weights follow.
  LocalRegionConfig cfg = timed_config(2, 200000);
  cfg.load_events = {{0, 0, 10.0}};
  LocalRegion region(cfg, std::make_unique<LoadBalancingPolicy>(2));
  const rt::LocalRunStats stats = region.run(millis(1200));
  EXPECT_TRUE(stats.order_ok);

  obs::MetricsRegistry& m = region.metrics();
  const double slow =
      static_cast<double>(m.gauge("region.capacity_tps.0").value());
  const double fast =
      static_cast<double>(m.gauge("region.capacity_tps.1").value());
  ASSERT_GT(slow, 0.0);
  EXPECT_GT(fast / slow, 5.0);
  EXPECT_LT(fast / slow, 15.0);
  EXPECT_GT(m.gauge("region.headroom_m").value(), 0);
  const std::int64_t bottleneck = m.gauge("region.bottleneck").value();
  EXPECT_TRUE(bottleneck == 0 || bottleneck == 1);
  EXPECT_LT(stats.final_weights[0], stats.final_weights[1]);
  EXPECT_GT(stats.final_weights[0], 0);
}

TEST(RuntimeCapacity, SymmetricLightRegionNeverStarvesALiveChannel) {
  // Two identical workers under an open-loop source well below their
  // capacity. The blocking-rate rule could collapse such a region onto
  // one channel on the first tick with any blocking; the capacity rule
  // must keep both fed in every period.
  LocalRegionConfig cfg = timed_config(2, 20000);
  cfg.source_interval = micros(200);
  LocalRegion region(cfg, std::make_unique<LoadBalancingPolicy>(2));
  Weight lowest = kWeightUnits;
  int samples = 0;
  region.set_sample_hook([&](const LocalSample& s) {
    ++samples;
    lowest = std::min({lowest, s.weights[0], s.weights[1]});
  });
  const rt::LocalRunStats stats = region.run(millis(1000));
  EXPECT_TRUE(stats.order_ok);
  EXPECT_GE(samples, 5);
  EXPECT_GT(lowest, 0);
}

TEST(RuntimeCapacity, WorkerReadmittedUnderOverloadGetsWeightBack) {
  // A closed-loop source saturates the region, so overload is declared.
  // Worker 1 dies and its replacement is re-admitted while overload
  // lasts: it must climb back from weight 0 to a share of its own
  // (examples/failover --safe-mode once ended at [500 0 500]).
  // 1 ms of service per tuple keeps the workers the bottleneck even
  // when the splitter runs slowly (sanitizer builds, loaded hosts).
  LocalRegionConfig cfg = timed_config(3, 1000000);
  cfg.failure_events = {{millis(300), 1, /*restart=*/false},
                        {millis(700), 1, /*restart=*/true}};
  ControllerConfig ctrl;
  ctrl.enable_overload_protection = true;
  LocalRegion region(cfg, std::make_unique<LoadBalancingPolicy>(3, ctrl));
  bool overloaded_after_restart = false;
  Weight readmitted = 0;
  region.set_sample_hook([&](const LocalSample& s) {
    if (s.elapsed < millis(750)) return;
    overloaded_after_restart = overloaded_after_restart ||
                               region.policy().overload_state().overloaded;
    readmitted = s.weights[1];
  });
  const rt::LocalRunStats stats = region.run(millis(1500));
  EXPECT_TRUE(stats.order_ok);
  EXPECT_EQ(stats.reconnects, 1u);
  EXPECT_TRUE(overloaded_after_restart);
  // The three workers are identical: a quarter of an even share is
  // "weight back", a probe's worth is not.
  EXPECT_GT(readmitted, 80);
  EXPECT_GT(stats.final_weights[1], 80);
}

}  // namespace
}  // namespace slb
