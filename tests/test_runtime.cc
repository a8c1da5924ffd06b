// Integration tests for the threaded runtime over real loopback TCP.
//
// These run on whatever cores CI gives us, with worker threads spinning
// real integer multiplies — so the assertions are deliberately
// *directional* (ordering holds, blocking is measured, load balancing
// moves weight the right way) rather than quantitative. The simulator
// tests carry the quantitative claims.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runtime/local_region.h"
#include "runtime/work.h"

namespace slb::rt {
namespace {

TEST(Work, SpinMultipliesIsDeterministic) {
  EXPECT_EQ(spin_multiplies(1, 1000), spin_multiplies(1, 1000));
  EXPECT_NE(spin_multiplies(1, 1000), spin_multiplies(2, 1000));
  EXPECT_NE(spin_multiplies(1, 1000), spin_multiplies(1, 1001));
}

TEST(Work, ZeroMultipliesIsIdentityish) {
  EXPECT_EQ(spin_multiplies(5, 0), 5u);
}

LocalRegionConfig fast_config(int workers) {
  LocalRegionConfig cfg;
  cfg.workers = workers;
  cfg.multiplies = 2000;
  cfg.payload_bytes = 32;
  cfg.sample_period = millis(50);
  return cfg;
}

TEST(LocalRegion, RoundRobinPreservesOrderAndCompletes) {
  LocalRegion region(fast_config(2), std::make_unique<RoundRobinPolicy>(2));
  const LocalRunStats stats = region.run(millis(500));
  EXPECT_GT(stats.sent, 100u);
  EXPECT_EQ(stats.emitted, stats.sent);
  EXPECT_TRUE(stats.order_ok);
}

TEST(LocalRegion, BlockingCountersAccumulateUnderOverload) {
  // One worker 100x loaded: the splitter must observe real blocking time
  // on at least one connection.
  LocalRegionConfig cfg = fast_config(2);
  cfg.load_events = {{0, 0, 100.0}};
  LocalRegion region(cfg, std::make_unique<RoundRobinPolicy>(2));
  const LocalRunStats stats = region.run(millis(800));
  ASSERT_EQ(stats.blocked.size(), 2u);
  EXPECT_GT(stats.blocked[0] + stats.blocked[1], millis(50));
  EXPECT_TRUE(stats.order_ok);
}

TEST(LocalRegion, LbShiftsWeightAwayFromLoadedWorker) {
  LocalRegionConfig cfg = fast_config(2);
  cfg.multiplies = 5000;
  cfg.load_events = {{0, 0, 100.0}};
  ControllerConfig cc;
  LocalRegion region(cfg,
                     std::make_unique<LoadBalancingPolicy>(2, cc));
  const LocalRunStats stats = region.run(seconds(2));
  EXPECT_TRUE(stats.order_ok);
  // Directional: the loaded connection must end below its even share.
  EXPECT_LT(stats.final_weights[0], 500);
  EXPECT_GT(stats.final_weights[1], 500);
}

TEST(LocalRegion, SampleHookFires) {
  LocalRegion region(fast_config(2), std::make_unique<RoundRobinPolicy>(2));
  int samples = 0;
  region.set_sample_hook([&](const LocalSample& s) {
    ++samples;
    EXPECT_EQ(s.weights.size(), 2u);
    EXPECT_EQ(s.block_rates.size(), 2u);
  });
  (void)region.run(millis(600));
  // Lower bound kept loose: the sample deadline bounds every wait, but a
  // heavily CPU-throttled machine can still starve the splitter thread.
  EXPECT_GE(samples, 1);
}

TEST(LocalRegion, RunIsOneShot) {
  LocalRegion region(fast_config(2), std::make_unique<RoundRobinPolicy>(2));
  (void)region.run(millis(50));
  EXPECT_THROW((void)region.run(millis(50)), std::logic_error);
}

TEST(LocalRegion, RejectsReroutePolicy) {
  // Section 4.4's re-routing baseline runs in the simulator only; the
  // runtime splitter always blocks on the connection it picked.
  EXPECT_THROW(LocalRegion(fast_config(2),
                           std::make_unique<RerouteOnBlockPolicy>(2)),
               std::invalid_argument);
  EXPECT_THROW(
      LocalRegion(fast_config(2), std::make_unique<ThroughputBalancedPolicy>(
                                      2, 0.5, /*reroute=*/true)),
      std::invalid_argument);
  EXPECT_NO_THROW(LocalRegion(fast_config(2),
                              std::make_unique<ThroughputBalancedPolicy>(
                                  2, 0.5, /*reroute=*/false)));
}

TEST(LocalRegion, RejectsANegativeSourceInterval) {
  // Rejected by the delivery core, before bring-up: a throw after the
  // merger PE started would hang in its destructor.
  LocalRegionConfig cfg = fast_config(2);
  cfg.source_interval = -1;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(LocalRegion(cfg, std::make_unique<RoundRobinPolicy>(2)),
               std::invalid_argument);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));
}

TEST(LocalRegion, RejectsInputsOutsideItsWorkers) {
  // Each would index a per-worker array out of bounds on the splitter
  // thread. Like the source-interval check, these run before bring-up.
  std::vector<LocalRegionConfig> bad;
  for (const int w : {-1, 2}) {
    LocalRegionConfig load = fast_config(2);
    load.load_events.push_back({millis(10), w, 2.0});
    bad.push_back(load);
    LocalRegionConfig failure = fast_config(2);
    failure.failure_events.push_back({millis(10), w, false});
    bad.push_back(failure);
  }
  for (std::size_t i = 0; i < bad.size(); ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_THROW(LocalRegion(bad[i], std::make_unique<RoundRobinPolicy>(2)),
                 std::invalid_argument)
        << "case " << i;
    EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1))
        << "case " << i;
  }
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(
      LocalRegion(fast_config(2), std::make_unique<RoundRobinPolicy>(3)),
      std::invalid_argument);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));
}

TEST(LocalRegion, TicksStayOnTimeUnderSkew) {
  // rt-skew in miniature: worker 0 carries 10x load, so the splitter
  // spends most of its time blocked on it. The sample deadline bounds
  // every wait, so the control loop still ticks once per period.
  LocalRegionConfig cfg = fast_config(2);
  cfg.work_mode = WorkMode::kTimed;
  cfg.multiplies = 200'000;  // 200 us per tuple, 2 ms on worker 0
  cfg.payload_bytes = 64;
  cfg.load_events = {{0, 0, 10.0}};
  cfg.delivery.mode = delivery::DeliveryMode::kAtLeastOnce;
  LocalRegion region(cfg, std::make_unique<LoadBalancingPolicy>(
                              2, ControllerConfig{}));
  int samples = 0;
  region.set_sample_hook([&](const LocalSample&) { ++samples; });
  const DurationNs duration = millis(1500);
  const LocalRunStats stats = region.run(duration);
  EXPECT_TRUE(stats.order_ok);
  const auto nominal = static_cast<int>(duration / cfg.sample_period);
  EXPECT_GE(samples, nominal * 9 / 10) << "of " << nominal << " periods";
}

TEST(LocalRegion, OpenLoopSourceSendsAtItsInterval) {
  // One tuple every 1 ms against 2 x 10k tuples/s of capacity: the
  // splitter never falls behind, so it sends the tuples released during
  // the run (one at each whole ms from the start), sheds none, and loses
  // at most a few to a late final wake.
  LocalRegionConfig cfg = fast_config(2);
  cfg.work_mode = WorkMode::kTimed;
  cfg.multiplies = 100'000;  // 100 us per tuple
  cfg.source_interval = millis(1);
  LocalRegion region(cfg, std::make_unique<RoundRobinPolicy>(2));
  const DurationNs duration = millis(300);
  const LocalRunStats stats = region.run(duration);
  const auto nominal =
      static_cast<std::uint64_t>(duration / cfg.source_interval);
  EXPECT_GE(stats.sent, nominal * 95 / 100);
  EXPECT_LE(stats.sent, nominal);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.emitted, stats.sent);
  EXPECT_TRUE(stats.order_ok);
}

TEST(LocalRegion, TimedWorkModeRunsAndPreservesOrder) {
  // kTimed waits out the service time instead of computing, keeping the
  // demo usable on oversubscribed machines; semantics are unchanged.
  LocalRegionConfig cfg = fast_config(2);
  cfg.multiplies = 2'000'000;  // 2 ms of "service" per tuple
  cfg.work_mode = WorkMode::kTimed;
  LocalRegion region(cfg, std::make_unique<RoundRobinPolicy>(2));
  const LocalRunStats stats = region.run(millis(500));
  EXPECT_GT(stats.sent, 50u);
  EXPECT_EQ(stats.emitted, stats.sent);
  EXPECT_TRUE(stats.order_ok);
}

TEST(LocalRegion, MetricsAgreeWithRunStats) {
  // The splitter counters are bumped on the send path and the merger
  // counters by the merger PE thread as it releases; either way they must
  // end at the run's own totals. A kill and restart of worker 1 makes the gap count (GapSkip)
  // and the retransmit count (at-least-once) non-zero.
  for (const delivery::DeliveryMode mode :
       {delivery::DeliveryMode::kGapSkip,
        delivery::DeliveryMode::kAtLeastOnce}) {
    const bool alo = mode == delivery::DeliveryMode::kAtLeastOnce;
    SCOPED_TRACE(alo ? "at-least-once" : "gap-skip");
    LocalRegionConfig cfg = fast_config(2);
    cfg.work_mode = WorkMode::kTimed;
    cfg.delivery.mode = mode;
    cfg.merger_gap_timeout = millis(50);
    cfg.failure_events = {{millis(40), 1, /*restart=*/false},
                          {millis(70), 1, /*restart=*/true}};
    LocalRegion region(cfg, std::make_unique<RoundRobinPolicy>(2));
    const LocalRunStats stats = region.run(millis(150));

    const obs::MetricsSnapshot snap = region.metrics().snapshot();
    const auto count = [&snap](const std::string& name) -> std::uint64_t {
      const obs::MetricValue* v = snap.find(name);
      EXPECT_NE(v, nullptr) << name;
      return v == nullptr ? 0 : v->count;
    };
    EXPECT_TRUE(stats.order_ok);
    EXPECT_GT(alo ? stats.retransmits : stats.gaps, 0u);
    EXPECT_EQ(count("merger.emitted"), stats.emitted);
    EXPECT_EQ(count("merger.gaps"), stats.gaps);
    EXPECT_EQ(count("merger.dup_discards"), stats.dup_discards);
    EXPECT_EQ(count("splitter.sent"), stats.sent);
    EXPECT_EQ(count("splitter.retransmits"), stats.retransmits);
    for (int j = 0; j < cfg.workers; ++j) {
      EXPECT_GT(count("worker." + std::to_string(j) + ".service_ns"), 0u)
          << "worker " << j;
    }
  }
}

TEST(LocalRegion, MergerCountersAreLiveBetweenTicks) {
  // The merger PE writes "merger.emitted" as it releases, so a reader on
  // another thread sees progress long before any sample tick: here no
  // tick fires at all, the period outlasting the run.
  LocalRegionConfig cfg = fast_config(2);
  cfg.sample_period = millis(10'000);
  LocalRegion region(cfg, std::make_unique<RoundRobinPolicy>(2));
  const obs::Counter& emitted = region.metrics().counter("merger.emitted");

  constexpr DurationNs kRun = millis(600);
  const TimeNs start = monotonic_now();
  std::atomic<bool> stop{false};
  TimeNs first_seen = 0;  // 0: never
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      if (emitted.value() > 0) {
        first_seen = monotonic_now();
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  const LocalRunStats stats = region.run(kRun);
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_GT(stats.emitted, 0u);
  ASSERT_NE(first_seen, 0) << "merger.emitted never moved during the run";
  EXPECT_LT(first_seen - start, kRun / 2);
}

}  // namespace
}  // namespace slb::rt
