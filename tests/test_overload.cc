// Overload-protection tests (DESIGN.md §7) across the layers:
//   * SaturationDetector: hysteretic entry/exit, the evenness test that
//     separates saturation from feasible imbalance, deficit bounds;
//   * controller: frozen weights and the safe-mode mark_down fallback
//     while overloaded;
//   * policy: safe-mode pinning to an even live split;
//   * simulator region: watermark shedding with exact gap accounting,
//     closed-loop admission throttling, and the watchdog ladder;
//   * flow pipeline: the same protection ladder, enforced per parallel
//     stage by the shared control loop and actuated at the source.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/controller.h"
#include "core/policies.h"
#include "core/saturation.h"
#include "flow/pipeline.h"
#include "sim/region.h"
#include "sim/sink.h"

namespace slb {
namespace {

// --- SaturationDetector ----------------------------------------------

SaturationConfig fast_config() {
  SaturationConfig cfg;
  cfg.enter_periods = 3;
  cfg.smoothing_alpha = 1.0;  // evenness on instantaneous rates
  return cfg;
}

TEST(SaturationDetector, EntersOnSaturatedEvenRatesWithHysteresis) {
  SaturationDetector det(fast_config());
  const std::vector<double> even = {0.24, 0.23, 0.23, 0.22};
  det.observe(even);
  det.observe(even);
  EXPECT_FALSE(det.overloaded());  // streak not complete
  det.observe(even);
  EXPECT_TRUE(det.overloaded());
}

TEST(SaturationDetector, ConcentratedBlockingDoesNotEnter) {
  // One connection soaking all the blocking is a gradient, not
  // saturation: the optimizer can still move weight off it.
  SaturationDetector det(fast_config());
  const std::vector<double> skewed = {0.95, 0.0, 0.0, 0.0};
  for (int i = 0; i < 50; ++i) det.observe(skewed);
  EXPECT_FALSE(det.overloaded());
}

TEST(SaturationDetector, RotatingDraftLeaderEntersViaSmoothing) {
  // Per-period blocking concentrates on one connection (drafting), but
  // the leader rotates: smoothed over a rotation cycle the spread is
  // even, which is the real saturation signature.
  SaturationConfig cfg;  // default smoothing_alpha = 0.05
  SaturationDetector det(cfg);
  for (int period = 0; period < 100; ++period) {
    std::vector<double> rates(4, 0.0);
    rates[static_cast<std::size_t>(period % 4)] = 0.93;
    det.observe(rates);
  }
  EXPECT_TRUE(det.overloaded());
}

TEST(SaturationDetector, ExitsAfterSustainedSlackOnly) {
  SaturationDetector det(fast_config());
  const std::vector<double> even = {0.24, 0.23, 0.23, 0.22};
  const std::vector<double> slack = {0.1, 0.1, 0.1, 0.1};
  for (int i = 0; i < 3; ++i) det.observe(even);
  ASSERT_TRUE(det.overloaded());
  // A single slack period is not recovery.
  det.observe(slack);
  det.observe(even);
  EXPECT_TRUE(det.overloaded());
  // Sustained slack is.
  det.observe(slack);
  det.observe(slack);
  det.observe(slack);
  EXPECT_FALSE(det.overloaded());
  EXPECT_EQ(det.capacity_deficit(), 0.0);
}

TEST(SaturationDetector, DeficitStaysInUnitInterval) {
  SaturationConfig cfg = fast_config();
  SaturationDetector det(cfg);
  EXPECT_EQ(det.capacity_deficit(), 0.0);
  // Aggregate above 1 (multi-connection sums can exceed it transiently)
  // must still clamp.
  const std::vector<double> hot = {0.5, 0.4, 0.4, 0.5};
  for (int i = 0; i < 10; ++i) det.observe(hot);
  ASSERT_TRUE(det.overloaded());
  EXPECT_GT(det.capacity_deficit(), 0.0);
  EXPECT_LE(det.capacity_deficit(), 1.0);
}

TEST(SaturationDetector, HostileRatesAreSanitized) {
  SaturationDetector det(fast_config());
  const std::vector<double> hostile = {
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(), -3.0, 0.5};
  for (int i = 0; i < 10; ++i) det.observe(hostile);
  // NaN/Inf/negative are treated as zero: concentrated, so no overload —
  // and no poisoned state either.
  EXPECT_FALSE(det.overloaded());
  EXPECT_EQ(det.capacity_deficit(), 0.0);
}

TEST(SaturationDetector, DownConnectionsAreExcluded) {
  SaturationDetector det(fast_config());
  const std::vector<double> rates = {0.31, 0.30, 0.0, 0.31};
  const std::vector<char> down = {0, 0, 1, 0};
  for (int i = 0; i < 3; ++i) {
    det.observe(rates, down);
  }
  // Without the mask the zero-rate connection 2 would fail evenness.
  EXPECT_TRUE(det.overloaded());
}

// --- controller freeze and safe-mode fallback ------------------------

ControllerConfig overload_controller() {
  ControllerConfig cfg;
  cfg.enable_overload_protection = true;
  cfg.saturation.smoothing_alpha = 1.0;
  cfg.saturation.enter_periods = 2;
  return cfg;
}

/// Drives `controller` with evenly spread near-total blocking until it
/// declares overload. Returns the cumulative-blocked vector at the end.
std::vector<DurationNs> drive_into_overload(LoadBalanceController& ctrl,
                                            int connections,
                                            TimeNs* now) {
  std::vector<DurationNs> blocked(static_cast<std::size_t>(connections), 0);
  for (int period = 1; period <= 10 && !ctrl.overloaded(); ++period) {
    for (auto& b : blocked) b += millis(10) * 23 / connections / 10;
    *now += millis(10);
    ctrl.update(*now, blocked);
  }
  return blocked;
}

TEST(ControllerOverload, FreezesWeightsWhileOverloaded) {
  LoadBalanceController ctrl(4, overload_controller());
  TimeNs now = 0;
  std::vector<DurationNs> blocked = drive_into_overload(ctrl, 4, &now);
  ASSERT_TRUE(ctrl.overloaded());
  const WeightVector frozen = ctrl.weights();

  // Feed strongly skewed blocking, which an active controller would act
  // on; frozen weights must not move.
  for (int period = 0; period < 10; ++period) {
    blocked[0] += millis(9);
    now += millis(10);
    ctrl.update(now, blocked);
  }
  EXPECT_TRUE(ctrl.overloaded());
  EXPECT_EQ(ctrl.weights(), frozen);
  EXPECT_GT(ctrl.capacity_deficit(), 0.0);
}

TEST(ControllerOverload, ProtectionOffNeverReportsOverload) {
  LoadBalanceController ctrl(4);  // defaults: protection disabled
  TimeNs now = 0;
  std::vector<DurationNs> blocked(4, 0);
  for (int period = 1; period <= 20; ++period) {
    for (auto& b : blocked) b += millis(10) * 23 / 40;
    now += millis(10);
    ctrl.update(now, blocked);
  }
  EXPECT_FALSE(ctrl.overloaded());
  EXPECT_EQ(ctrl.capacity_deficit(), 0.0);
}

TEST(ControllerOverload, MarkDownWhileOverloadedFallsBackToEvenSplit) {
  LoadBalanceController ctrl(4, overload_controller());
  TimeNs now = 0;
  drive_into_overload(ctrl, 4, &now);
  ASSERT_TRUE(ctrl.overloaded());

  ctrl.mark_down(1);
  const WeightVector& w = ctrl.weights();
  EXPECT_EQ(w[1], 0);
  EXPECT_EQ(std::accumulate(w.begin(), w.end(), Weight{0}), kWeightUnits);
  // Even over the three survivors (largest-remainder rounding: +-1).
  for (int j : {0, 2, 3}) {
    EXPECT_NEAR(w[static_cast<std::size_t>(j)], kWeightUnits / 3, 1)
        << "survivor " << j;
  }
}

// --- policy safe mode ------------------------------------------------

TEST(PolicyOverload, SafeModePinsEvenSplitOverLiveConnections) {
  LoadBalancingPolicy policy(4, overload_controller());
  policy.on_channel_down(2);
  policy.enter_safe_mode();
  ASSERT_TRUE(policy.safe_mode());
  const WeightVector& w = policy.weights();
  EXPECT_EQ(w[2], 0);
  EXPECT_EQ(std::accumulate(w.begin(), w.end(), Weight{0}), kWeightUnits);
  for (int j : {0, 1, 3}) {
    EXPECT_NEAR(w[static_cast<std::size_t>(j)], kWeightUnits / 3, 1);
  }
  // Routing respects the pin: the downed connection is never picked.
  for (int i = 0; i < 300; ++i) EXPECT_NE(policy.pick_connection(), 2);

  // Safe mode tracks membership changes.
  policy.on_channel_up(2);
  EXPECT_NEAR(policy.weights()[2], kWeightUnits / 4, 1);

  policy.exit_safe_mode();
  EXPECT_FALSE(policy.safe_mode());
}

TEST(PolicyOverload, ChannelLostInSafeModeRepinsEvenSplitOverSurvivors) {
  // Capacity readings give the controller an uneven split, which safe
  // mode overrides; a channel lost in safe mode leaves the survivors an
  // even split, not the controller's renormalized one.
  LoadBalancingPolicy policy(3);
  const std::vector<DurationNs> blocked(3, 0);
  const std::vector<double> capacity{1000.0, 2000.0, 5000.0};
  for (int p = 0; p < 3; ++p) {
    policy.on_sample(PolicySample{p * millis(100), blocked, capacity, {}});
  }
  ASSERT_NE(policy.weights()[1], policy.weights()[2]);
  policy.enter_safe_mode();
  policy.on_channel_down(0);
  EXPECT_EQ(policy.weights(), (WeightVector{0, 500, 500}));
  for (int i = 0; i < 300; ++i) EXPECT_NE(policy.pick_connection(), 0);
}

// --- simulator region ------------------------------------------------

sim::RegionConfig overloaded_region(bool open_loop) {
  sim::RegionConfig cfg;
  cfg.workers = 4;
  cfg.base_cost = micros(10);
  cfg.send_overhead = 200;
  cfg.sample_period = millis(5);
  if (open_loop) {
    // Offered load = 2x nominal capacity.
    cfg.source_interval = static_cast<DurationNs>(
        static_cast<double>(cfg.base_cost) / (cfg.workers * 2.0));
  }
  return cfg;
}

TEST(RegionOverload, SheddingBoundsBacklogAndKeepsAccounting) {
  sim::RegionConfig cfg = overloaded_region(/*open_loop=*/true);
  cfg.protection.shed_high_watermark = 128;
  cfg.protection.shed_low_watermark = 64;
  sim::Region region(
      cfg, std::make_unique<LoadBalancingPolicy>(
               4, overload_controller()));
  region.run_for(millis(500));

  EXPECT_GT(region.shed_tuples(), 0u);
  // Backlog stays at the watermark scale instead of growing all run.
  EXPECT_LE(region.splitter().source_backlog(region.now()),
            cfg.protection.shed_high_watermark + 16);
  // Conservation: every sent tuple is emitted or demonstrably in flight
  // (no crashes here), and gaps only ever come from declared sheds.
  std::uint64_t in_flight = 0;
  for (int j = 0; j < 4; ++j) {
    in_flight += region.channel(j).occupancy();
    in_flight += region.merger().queue_size(j);
    if (region.worker(j).busy()) ++in_flight;
    if (region.worker(j).holding()) ++in_flight;
  }
  EXPECT_EQ(region.splitter().total_sent(), region.emitted() + in_flight);
  EXPECT_LE(region.merger().gaps(), region.shed_tuples());
  EXPECT_GT(region.merger().gaps(), 0u);
  // Goodput stays near capacity: shedding protects the region, it does
  // not starve it. (Capacity = 4 workers / 10 us.)
  const double capacity =
      4.0 * kNanosPerSec / static_cast<double>(micros(10));
  const double goodput = static_cast<double>(region.emitted()) *
                         kNanosPerSec / static_cast<double>(millis(500));
  EXPECT_GT(goodput, 0.85 * capacity);
}

TEST(RegionOverload, NoSheddingMeansUnboundedBacklog) {
  sim::RegionConfig cfg = overloaded_region(/*open_loop=*/true);
  sim::Region region(
      cfg, std::make_unique<LoadBalancingPolicy>(
               4, overload_controller()));
  region.run_for(millis(500));
  EXPECT_EQ(region.shed_tuples(), 0u);
  // 2x overload for 500 ms at 10 us/tuple/4 workers: ~200k offered,
  // ~100k absorbable — the backlog holds the difference.
  EXPECT_GT(region.splitter().source_backlog(region.now()), 50'000u);
}

TEST(RegionOverload, ClosedLoopAdmissionThrottlesAndDeclares) {
  sim::RegionConfig cfg = overloaded_region(/*open_loop=*/false);
  cfg.protection.admission_control = true;
  // Default (drafting-aware) saturation smoothing: inside a real region
  // the per-period blocking concentrates on a rotating leader, so the
  // instantaneous evenness used by the unit tests above never fires here.
  ControllerConfig ctrl;
  ctrl.enable_overload_protection = true;
  sim::Region region(cfg, std::make_unique<LoadBalancingPolicy>(4, ctrl));
  bool declared = false;
  double min_throttle_seen = 1.0;
  region.set_sample_hook([&](sim::Region& r) {
    declared = declared || r.policy().overload_state().overloaded;
    min_throttle_seen = std::min(min_throttle_seen, r.splitter().throttle());
    // The region applies the loop's decision before the hook runs.
    ASSERT_EQ(r.splitter().throttle(), r.control().last_actions().throttle);
  });
  region.run_for(millis(600));
  // Throttling relieves the blocking, the detector exits, load returns:
  // a limit cycle. Assert the cycle happened, not a particular phase.
  EXPECT_TRUE(declared);
  EXPECT_LT(min_throttle_seen, 1.0);
  EXPECT_GE(min_throttle_seen, control::kMinThrottle);
}

TEST(RegionOverload, WatchdogEscalatesToSafeModeAndStaysLive) {
  // Open-loop 2x overload with no admission control and no shedding
  // configured: stages 1 and 2 of the ladder are no-ops by construction,
  // so a persistent blocking budget violation must walk all the way to
  // safe mode — and the region must keep emitting once it gets there.
  sim::RegionConfig cfg = overloaded_region(/*open_loop=*/true);
  cfg.protection.watchdog = true;
  cfg.protection.watchdog_periods = 4;
  sim::Region region(cfg, std::make_unique<LoadBalancingPolicy>(4));
  region.run_for(millis(400));

  EXPECT_EQ(region.watchdog_stage(), 3);
  EXPECT_TRUE(region.policy().safe_mode());
  // Safe-mode WRR still routes: the region keeps emitting.
  EXPECT_GT(region.emitted(), 10'000u);
  const WeightVector& w = region.policy().weights();
  EXPECT_EQ(std::accumulate(w.begin(), w.end(), Weight{0}), kWeightUnits);
}

TEST(RegionOverload, WatchdogUnwindsAfterCalm) {
  // Open-loop source feasible after a burst: blocking stays high while
  // the burst lasts, then drains; the ladder must fully unwind.
  sim::RegionConfig cfg = overloaded_region(/*open_loop=*/true);
  cfg.source_interval = static_cast<DurationNs>(
      static_cast<double>(cfg.base_cost) / 4.0 * 1.6);  // 0.63x capacity
  cfg.protection.watchdog = true;
  cfg.protection.watchdog_periods = 4;
  cfg.protection.shed_high_watermark = 256;
  cfg.protection.shed_low_watermark = 128;
  sim::LoadProfile load(4);
  for (int j = 0; j < 4; ++j) load.add_load_until(j, 8.0, millis(150));
  // Round-robin keeps the post-burst phase quiet: an adaptive controller
  // re-explores periodically, and those transient skews can re-trip
  // stage 1 right at the measurement instant.
  sim::Region region(cfg, std::make_unique<RoundRobinPolicy>(4), load);
  bool escalated = false;
  region.set_sample_hook([&](sim::Region& r) {
    escalated = escalated || r.watchdog_stage() > 0;
  });
  region.run_for(millis(600));
  EXPECT_TRUE(escalated);
  EXPECT_EQ(region.watchdog_stage(), 0);
  EXPECT_FALSE(region.policy().safe_mode());
}

TEST(RegionOverload, ShedWithLowAboveHighKeepsOrder) {
  // The sim twin of RtDelivery.ShedWithLowAboveHighKeepsOrder: a low
  // watermark above the high one sheds only a backlog above both, and
  // the sequence stream stays ordered and fully accounted.
  sim::RegionConfig cfg;
  cfg.workers = 2;
  cfg.base_cost = micros(2);
  cfg.source_interval = micros(10);  // a tenth of capacity...
  cfg.sample_period = millis(5);
  cfg.protection.shed_high_watermark = 32;
  cfg.protection.shed_low_watermark = 64;
  sim::LoadProfile load(2);
  // ...except during a burst at half the offered rate, which sheds.
  for (int j = 0; j < 2; ++j) load.add_load_until(j, 20.0, millis(50));
  sim::CountingSink sink;
  std::uint64_t last_seq = 0;
  bool ordered = true;
  sink.set_on_tuple([&](const sim::Tuple& t) {
    if (sink.count() > 1 && t.seq <= last_seq) ordered = false;
    last_seq = t.seq;
  });
  sim::Region region(cfg, std::make_unique<RoundRobinPolicy>(2), load, {},
                     nullptr, {}, nullptr, &sink);
  region.run_for(millis(100));
  // Drain: after the burst the region idles between releases, so step
  // to an instant with nothing in flight or announced but unskipped.
  const auto busy = [&] {
    std::uint64_t n = region.merger().lost_pending();
    for (int j = 0; j < 2; ++j) {
      n += region.channel(j).occupancy() + region.merger().queue_size(j);
      if (region.worker(j).busy()) ++n;
      if (region.worker(j).holding()) ++n;
    }
    return n;
  };
  for (int step = 0; step < 100 && busy() > 0; ++step) {
    region.run_for(micros(1));
  }
  ASSERT_EQ(busy(), 0u);

  EXPECT_GT(region.shed_tuples(), 0u);
  EXPECT_TRUE(ordered);
  EXPECT_EQ(region.merger().gaps(), region.shed_tuples());
  EXPECT_EQ(region.emitted() + region.merger().gaps(),
            region.splitter().total_sent() + region.shed_tuples());
}

TEST(RegionOverload, RejectsANegativeSourceInterval) {
  // A negative interval would run the splitter closed loop while the
  // control loop, seeing a non-zero interval, treats the source as open
  // loop and never throttles it.
  sim::RegionConfig cfg = overloaded_region(/*open_loop=*/true);
  cfg.source_interval = -1;
  EXPECT_THROW(sim::Region(cfg, std::make_unique<RoundRobinPolicy>(4)),
               std::invalid_argument);
}

// --- flow pipeline ----------------------------------------------------
//
// The same ladder, driven through flow::Pipeline's per-stage control
// loops. Topology differs (the stage splitter is fed by an upstream
// channel, actuation lands on the pipeline's shared source), but the
// decisions are made by the identical control::RegionControlLoop.

flow::PipelineConfig overloaded_pipeline(bool open_loop) {
  flow::PipelineConfig cfg;
  cfg.source_overhead = 200;
  cfg.sample_period = millis(5);
  if (open_loop) {
    // Offered load = 2x the 4-way, 10 us/tuple stage capacity.
    cfg.source_interval =
        static_cast<DurationNs>(static_cast<double>(micros(10)) / 8.0);
  }
  return cfg;
}

TEST(PipelineOverload, WatchdogEscalatesToSafeModeAndStaysLive) {
  // Open-loop 2x overload with no admission control and no shedding:
  // stages 1 and 2 are no-ops by construction, so the persistent budget
  // violation must walk the stage's ladder all the way to safe mode —
  // and the pipeline must keep delivering once it gets there.
  flow::PipelineConfig cfg = overloaded_pipeline(/*open_loop=*/true);
  cfg.protection.watchdog = true;
  cfg.protection.watchdog_periods = 4;
  flow::PipelineBuilder builder(cfg);
  builder.parallel("score", 4, micros(10),
                   std::make_unique<LoadBalancingPolicy>(4));
  auto pipeline = builder.build();
  pipeline->run_for(millis(400));

  EXPECT_EQ(pipeline->stage_region(0).watchdog_stage(), 3);
  EXPECT_TRUE(pipeline->stage_region(0).policy().safe_mode());
  EXPECT_GT(pipeline->delivered(), 10'000u);
  EXPECT_TRUE(pipeline->order_ok());
}

TEST(PipelineOverload, SourceSheddingKeepsGoodputAndOrdering) {
  flow::PipelineConfig cfg = overloaded_pipeline(/*open_loop=*/true);
  cfg.protection.shed_high_watermark = 128;
  cfg.protection.shed_low_watermark = 64;
  flow::PipelineBuilder builder(cfg);
  builder.parallel("score", 4, micros(10),
                   std::make_unique<LoadBalancingPolicy>(
                       4, overload_controller()));
  auto pipeline = builder.build();
  pipeline->run_for(millis(500));

  EXPECT_GT(pipeline->shed_tuples(), 0u);
  // Sheds happen at the source, before the stage splitter restamps the
  // survivors with its own dense sequence stream: the stage merger sees
  // no gaps, so in-order delivery survives shedding.
  EXPECT_EQ(pipeline->stage_region(0).merger().gaps(), 0u);
  EXPECT_TRUE(pipeline->order_ok());
  // Goodput stays near capacity: shedding protects the pipeline, it
  // does not starve it. (Capacity = 4 workers / 10 us.)
  const double capacity =
      4.0 * kNanosPerSec / static_cast<double>(micros(10));
  const double goodput = static_cast<double>(pipeline->delivered()) *
                         kNanosPerSec / static_cast<double>(millis(500));
  EXPECT_GT(goodput, 0.80 * capacity);
}

TEST(PipelineOverload, ClosedLoopAdmissionThrottlesAndDeclares) {
  flow::PipelineConfig cfg = overloaded_pipeline(/*open_loop=*/false);
  cfg.protection.admission_control = true;
  ControllerConfig ctrl;
  ctrl.enable_overload_protection = true;
  flow::PipelineBuilder builder(cfg);
  builder.parallel("score", 4, micros(10),
                   std::make_unique<LoadBalancingPolicy>(4, ctrl));
  auto pipeline = builder.build();

  bool declared = false;
  double min_throttle_seen = 1.0;
  for (int step = 0; step < 120; ++step) {
    pipeline->run_for(millis(5));
    declared =
        declared || pipeline->stage_region(0).policy().overload_state().overloaded;
    min_throttle_seen =
        std::min(min_throttle_seen, pipeline->source_throttle());
    // One stage: the source carries exactly that stage loop's throttle.
    ASSERT_EQ(pipeline->source_throttle(),
              pipeline->stage_region(0).control().last_actions().throttle)
        << "step " << step;
  }
  // Same limit cycle as the standalone region: declare, throttle,
  // relieve, release. Assert the cycle happened, not a phase.
  EXPECT_TRUE(declared);
  EXPECT_LT(min_throttle_seen, 1.0);
  EXPECT_GE(min_throttle_seen, control::kMinThrottle);
}

TEST(PipelineOverload, RejectsANegativeSourceInterval) {
  flow::PipelineConfig cfg = overloaded_pipeline(/*open_loop=*/true);
  cfg.source_interval = -1;
  flow::PipelineBuilder builder(cfg);
  builder.parallel("score", 4, micros(10),
                   std::make_unique<LoadBalancingPolicy>(4));
  EXPECT_THROW(builder.build(), std::invalid_argument);
}

}  // namespace
}  // namespace slb
