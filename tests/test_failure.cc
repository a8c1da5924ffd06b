// Failure-handling tests across all three layers:
//   * controller: mark_down / mark_up renormalization and re-admission;
//   * simulator: deterministic crash/recover with exact gap accounting;
//   * runtime: a real worker thread killed mid-run over loopback TCP,
//     with quarantine, reconnect, and an in-order (modulo gaps) output.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <vector>

#include "core/controller.h"
#include "core/policies.h"
#include "runtime/local_region.h"
#include "sim/harness.h"
#include "sim/region.h"

namespace slb {
namespace {

// --- controller ------------------------------------------------------

TEST(ControllerFailure, MarkDownRedistributesToSurvivors) {
  LoadBalanceController controller(4);
  controller.set_weights({400, 300, 200, 100});
  controller.mark_down(1);
  const WeightVector& w = controller.weights();
  EXPECT_EQ(w[1], 0);
  EXPECT_EQ(std::accumulate(w.begin(), w.end(), Weight{0}), kWeightUnits);
  // Proportional split of the dead connection's 300 over 400:200:100.
  EXPECT_GT(w[0], 400);
  EXPECT_GT(w[2], 200);
  EXPECT_GT(w[3], 100);
  EXPECT_NE(controller.down_mask()[1], 0);
  EXPECT_EQ(controller.live(), 3);
}

TEST(ControllerFailure, MarkDownIsIdempotent) {
  LoadBalanceController controller(3);
  controller.mark_down(0);
  const WeightVector snapshot = controller.weights();
  controller.mark_down(0);
  EXPECT_EQ(controller.weights(), snapshot);
}

TEST(ControllerFailure, DownChannelStaysAtZeroAcrossUpdates) {
  LoadBalanceController controller(3);
  controller.mark_down(2);
  std::vector<DurationNs> blocked = {0, 0, 0};
  for (int period = 1; period <= 20; ++period) {
    blocked[0] += millis(2);  // connection 0 keeps blocking
    controller.update(period * millis(10), blocked);
    EXPECT_EQ(controller.weights()[2], 0) << "period " << period;
  }
}

TEST(ControllerFailure, MarkUpReadmitsThroughGeometricProbing) {
  LoadBalanceController controller(3);
  controller.mark_down(2);
  controller.mark_up(2);
  EXPECT_EQ(controller.down_mask()[2], 0);
  EXPECT_EQ(controller.weights()[2], 0);  // starts from nothing

  // With connection 0 blocking, updates run the solver; the recovered
  // connection climbs back via step-up probing.
  std::vector<DurationNs> blocked = {0, 0, 0};
  Weight prev = 0;
  bool grew = false;
  for (int period = 1; period <= 20; ++period) {
    blocked[0] += millis(2);
    controller.update(period * millis(10), blocked);
    const Weight w = controller.weights()[2];
    if (w > prev) grew = true;
    prev = w;
  }
  EXPECT_TRUE(grew);
  EXPECT_GT(controller.weights()[2], 0);
}

TEST(ControllerFailure, AllDownHoldsWeightsWithoutCrashing) {
  LoadBalanceController controller(2);
  controller.mark_down(0);
  controller.mark_down(1);
  EXPECT_EQ(controller.live(), 0);
  std::vector<DurationNs> blocked = {millis(1), millis(1)};
  controller.update(millis(10), blocked);  // must not divide by zero
  EXPECT_EQ(std::accumulate(controller.weights().begin(),
                            controller.weights().end(), Weight{0}),
            kWeightUnits);
}

TEST(PolicyFailure, ChannelHooksReachControllerAndWrr) {
  LoadBalancingPolicy policy(3);
  policy.on_channel_down(1);
  EXPECT_EQ(policy.weights()[1], 0);
  // The WRR must never name the dead connection while it has weight 0.
  for (int i = 0; i < 300; ++i) EXPECT_NE(policy.pick_connection(), 1);
  policy.on_channel_up(1);
  EXPECT_EQ(policy.weights()[1], 0);  // re-admitted but not yet trusted
}

// --- simulator -------------------------------------------------------

sim::RegionConfig small_region(int workers) {
  sim::RegionConfig cfg;
  cfg.workers = workers;
  cfg.base_cost = micros(5);
  cfg.send_overhead = micros(1);
  cfg.sample_period = millis(5);
  return cfg;
}

TEST(SimFailure, CrashShiftsTrafficToSurvivors) {
  sim::Region region(small_region(3),
                     std::make_unique<LoadBalancingPolicy>(3));
  region.inject_fault({sim::FaultKind::kWorkerCrash, 1, millis(50), 0});
  region.run_for(millis(200));

  EXPECT_TRUE(region.worker(1).down());
  EXPECT_EQ(region.policy().weights()[1], 0);
  // Lost tuples are bounded by what the dead channel could hold.
  EXPECT_GT(region.lost_tuples(), 0u);
  EXPECT_EQ(region.merger().gaps(), region.lost_tuples());
  // Conservation: everything sent is emitted, lost, or still in flight.
  std::uint64_t in_flight = 0;
  for (int j = 0; j < 3; ++j) {
    in_flight += region.channel(j).occupancy();
    in_flight += region.merger().queue_size(j);
    if (region.worker(j).busy()) ++in_flight;
    if (region.worker(j).holding()) ++in_flight;
  }
  EXPECT_EQ(region.splitter().total_sent(),
            region.emitted() + region.lost_tuples() + in_flight);
  // The region keeps flowing on the survivors.
  EXPECT_GT(region.emitted(), 1000u);
}

TEST(SimFailure, RecoveryReadmitsWorker) {
  sim::Region region(small_region(3),
                     std::make_unique<LoadBalancingPolicy>(3));
  region.inject_fault({sim::FaultKind::kWorkerCrash, 0, millis(40), 0});
  region.inject_fault({sim::FaultKind::kWorkerRecover, 0, millis(100), 0});

  // Snapshot worker 0's lifetime tuple count at its first post-recovery
  // sample, to prove it did real work *after* the restart.
  std::uint64_t processed_at_recovery = 0;
  bool seen_recovered = false;
  region.set_sample_hook([&](sim::Region& r) {
    if (!seen_recovered && r.now() >= millis(100) && !r.worker(0).down()) {
      seen_recovered = true;
      processed_at_recovery = r.worker(0).processed();
    }
  });
  region.run_for(millis(400));

  EXPECT_FALSE(region.worker(0).down());
  EXPECT_TRUE(seen_recovered);
  // The recovered worker won weight back via step-up probing and
  // processed real tuples after its restart.
  EXPECT_GT(region.policy().weights()[0], 0);
  EXPECT_GT(region.worker(0).processed(), processed_at_recovery);
}

TEST(SimFailure, ChannelStallLosesNothing) {
  sim::Region region(small_region(2),
                     std::make_unique<RoundRobinPolicy>(2));
  region.inject_fault(
      {sim::FaultKind::kChannelStall, 0, millis(30), millis(20)});
  region.run_for(millis(200));
  EXPECT_EQ(region.lost_tuples(), 0u);
  EXPECT_EQ(region.merger().gaps(), 0u);
  EXPECT_GT(region.emitted(), 1000u);
}

TEST(SimFailure, TotalOutageParksSplitterThenResumes) {
  sim::Region region(small_region(2),
                     std::make_unique<RoundRobinPolicy>(2));
  region.inject_fault({sim::FaultKind::kWorkerCrash, 0, millis(20), 0});
  region.inject_fault({sim::FaultKind::kWorkerCrash, 1, millis(20), 0});
  region.inject_fault({sim::FaultKind::kWorkerRecover, 0, millis(60), 0});
  region.run_for(millis(150));
  EXPECT_GT(region.emitted(), 0u);
  // After recovery the splitter resumed: worker 0 processed post-outage
  // tuples.
  EXPECT_GT(region.worker(0).processed(), 10u);
}

std::vector<std::uint64_t> crash_run_signature(unsigned salt) {
  sim::Region region(small_region(4),
                     std::make_unique<LoadBalancingPolicy>(4));
  (void)salt;  // same schedule each time; determinism is the point
  region.inject_fault({sim::FaultKind::kWorkerCrash, 2, millis(30), 0});
  region.inject_fault(
      {sim::FaultKind::kChannelStall, 0, millis(50), millis(10)});
  region.inject_fault({sim::FaultKind::kWorkerRecover, 2, millis(90), 0});
  region.run_for(millis(300));
  std::vector<std::uint64_t> sig;
  sig.push_back(region.emitted());
  sig.push_back(region.lost_tuples());
  sig.push_back(region.merger().gaps());
  sig.push_back(region.splitter().total_sent());
  sig.push_back(region.splitter().failovers());
  for (int j = 0; j < 4; ++j) {
    sig.push_back(region.splitter().sent(j));
    sig.push_back(region.worker(j).processed());
    sig.push_back(static_cast<std::uint64_t>(region.policy().weights()[j]));
  }
  return sig;
}

TEST(SimFailure, CrashScheduleIsDeterministic) {
  const auto a = crash_run_signature(1);
  const auto b = crash_run_signature(2);
  EXPECT_EQ(a, b);
}

TEST(SimFailure, HarnessFaultSpecsApply) {
  sim::ExperimentSpec spec;
  spec.workers = 3;
  spec.base_multiplies = 500;
  spec.faults.push_back(
      {sim::FaultKind::kWorkerCrash, 1, 10.0, 0.0});
  auto region = sim::make_region(sim::PolicyKind::kLbAdaptive, spec);
  region->run_for(spec.scale.from_paper_seconds(30.0));
  EXPECT_TRUE(region->worker(1).down());
  EXPECT_EQ(region->policy().weights()[1], 0);
  EXPECT_GT(region->emitted(), 0u);
}

// --- runtime ---------------------------------------------------------

rt::LocalRegionConfig rt_config(int workers) {
  rt::LocalRegionConfig cfg;
  cfg.workers = workers;
  cfg.multiplies = 2000;
  cfg.payload_bytes = 32;
  cfg.sample_period = millis(50);
  return cfg;
}

TEST(RuntimeFailure, KillQuarantinesAndOutputStaysOrdered) {
  rt::LocalRegionConfig cfg = rt_config(3);
  cfg.failure_events = {{millis(300), 1, /*restart=*/false}};
  rt::LocalRegion region(cfg, std::make_unique<LoadBalancingPolicy>(3));
  const rt::LocalRunStats stats = region.run(millis(1500));

  EXPECT_GT(stats.sent, 100u);
  EXPECT_EQ(stats.channel_failures, 1u);
  EXPECT_EQ(stats.reconnects, 0u);
  // Order modulo gaps: emission stayed monotone and every sent sequence
  // is accounted for as emitted or lost-with-the-worker.
  EXPECT_TRUE(stats.order_ok);
  EXPECT_EQ(stats.emitted + stats.gaps, stats.sent);
  // The dead channel's weight went to zero.
  EXPECT_EQ(stats.final_weights[1], 0);
}

TEST(RuntimeFailure, KillAndRestartReconnects) {
  rt::LocalRegionConfig cfg = rt_config(3);
  cfg.failure_events = {{millis(300), 2, /*restart=*/false},
                        {millis(700), 2, /*restart=*/true}};
  rt::LocalRegion region(cfg, std::make_unique<LoadBalancingPolicy>(3));

  std::vector<std::pair<DurationNs, Weight>> w2;
  std::vector<std::pair<DurationNs, std::uint64_t>> reconnects;
  region.set_sample_hook([&](const rt::LocalSample& s) {
    w2.emplace_back(s.elapsed, s.weights[2]);
    reconnects.emplace_back(
        s.elapsed, region.metrics().counter("splitter.reconnects").value());
  });
  const rt::LocalRunStats stats = region.run(millis(2500));

  EXPECT_EQ(stats.channel_failures, 1u);
  EXPECT_EQ(stats.reconnects, 1u);
  EXPECT_TRUE(stats.order_ok);
  EXPECT_EQ(stats.emitted + stats.gaps, stats.sent);
  // After the restart the connection earned weight back.
  EXPECT_GT(stats.final_weights[2], 0);
  // And the replacement worker processed real tuples.
  EXPECT_GT(region.worker(2).processed(), 0u);

  // Weight shifted off the dead connection within 3 sample periods of
  // the kill.
  std::size_t first = w2.size();
  for (std::size_t i = 0; i < w2.size(); ++i) {
    if (w2[i].first >= millis(300)) {
      first = i;
      break;
    }
  }
  ASSERT_LT(first, w2.size());
  bool dropped = false;
  for (std::size_t i = first; i < std::min(first + 3, w2.size()); ++i) {
    if (w2[i].second == 0) dropped = true;
  }
  EXPECT_TRUE(dropped);

  // The restart is re-admitted at its event, not on a retry clock: the
  // connection is back by the first sample at or after 800 ms.
  const auto readmitted = std::find_if(
      reconnects.begin(), reconnects.end(),
      [](const auto& r) { return r.first >= millis(800); });
  ASSERT_NE(readmitted, reconnects.end());
  EXPECT_EQ(readmitted->second, 1u) << "sample at " << readmitted->first;
}

TEST(RuntimeFailure, CleanRunReportsNoGaps) {
  rt::LocalRegionConfig cfg = rt_config(2);
  rt::LocalRegion region(cfg, std::make_unique<RoundRobinPolicy>(2));
  const rt::LocalRunStats stats = region.run(millis(400));
  EXPECT_EQ(stats.gaps, 0u);
  EXPECT_EQ(stats.channel_failures, 0u);
  EXPECT_EQ(stats.emitted, stats.sent);
  EXPECT_TRUE(stats.order_ok);
}

TEST(RuntimeFailure, UnscheduledKillIsReadmitted) {
  // A worker killed outside the failure schedule stays restartable, so
  // the splitter re-admits it on its next loop pass and the merger
  // re-admits its stream through the listener it was brought up on.
  rt::LocalRegionConfig cfg = rt_config(2);
  cfg.work_mode = rt::WorkMode::kTimed;
  cfg.multiplies = 1000;
  cfg.delivery.mode = delivery::DeliveryMode::kAtLeastOnce;
  rt::LocalRegion region(cfg, std::make_unique<RoundRobinPolicy>(2));
  bool killed = false;
  region.set_sample_hook([&](const rt::LocalSample& s) {
    if (killed || s.elapsed < millis(100)) return;
    region.worker(0).kill();
    killed = true;
  });
  const rt::LocalRunStats stats = region.run(millis(1500));

  ASSERT_TRUE(killed);
  EXPECT_GE(region.metrics().counter("splitter.reconnects").value(), 1u);
  EXPECT_GE(region.metrics().counter("merger.reconnects").value(), 1u);
  EXPECT_EQ(stats.emitted, stats.sent);
  EXPECT_EQ(stats.gaps, 0u);
  EXPECT_TRUE(stats.order_ok);
}

// Liveness after a GapSkip kill: the merger skips what died with the
// worker as soon as no open stream can still carry it, instead of
// stalling the region until the end of input.

/// Emitted count per sample period of one run, and the run's totals.
struct LiveRun {
  std::vector<std::pair<DurationNs, std::uint64_t>> emitted;
  rt::LocalRunStats stats;
  std::int64_t max_depth = 0;

  /// Emitted at the first sample at or after `t`.
  std::uint64_t at(DurationNs t) const {
    for (const auto& [elapsed, count] : emitted) {
      if (elapsed >= t) return count;
    }
    return emitted.empty() ? 0 : emitted.back().second;
  }
};

LiveRun live_run(rt::LocalRegionConfig cfg,
                 std::unique_ptr<SplitPolicy> policy, DurationNs duration) {
  // Timed 200 us tuples: stable capacities on any host, and a splitter
  // fast enough to keep every worker's buffers full, so a kill always
  // loses tuples (gaps > 0) even on a loaded machine.
  cfg.work_mode = rt::WorkMode::kTimed;
  cfg.multiplies = 200000;
  LiveRun run;
  rt::LocalRegion region(cfg, std::move(policy));
  region.set_sample_hook([&run](const rt::LocalSample& s) {
    run.emitted.emplace_back(s.elapsed, s.emitted);
  });
  run.stats = region.run(duration);
  run.max_depth = region.metrics().gauge("merger.max_depth").value();
  return run;
}

/// Output in the second after a kill at `kill` (from 0.2 s on, once the
/// survivors took over) is at least a third of the second before it, and
/// the reorder queues stayed small: the lost sequences were skipped as
/// they came up, not held until the end. The runs use fixed weights, so
/// the victim always holds tuples when it dies (an adaptive policy may
/// have moved its weight away).
void expect_live_after(const LiveRun& run, DurationNs kill) {
  const std::uint64_t before = run.at(kill) - run.at(kill - seconds(1));
  const std::uint64_t after =
      run.at(kill + millis(1200)) - run.at(kill + millis(200));
  EXPECT_GT(before, 0u);
  EXPECT_GE(3 * after, before) << "before " << before << " after " << after;
  EXPECT_LE(run.max_depth, 5000);
  const rt::LocalRunStats& s = run.stats;
  EXPECT_TRUE(s.order_ok);
  EXPECT_EQ(s.late_discards, 0u);
  EXPECT_GT(s.gaps, 0u);
  EXPECT_EQ(s.emitted + s.gaps, s.sent + s.shed);
}

TEST(RuntimeFailure, GapSkipKillKeepsOutputFlowing) {
  rt::LocalRegionConfig cfg = rt_config(3);
  cfg.failure_events = {{millis(1200), 1, /*restart=*/false}};
  const LiveRun run = live_run(
      cfg, std::make_unique<RoundRobinPolicy>(3), millis(2500));
  expect_live_after(run, millis(1200));
  EXPECT_EQ(run.stats.channel_failures, 1u);
}

TEST(RuntimeFailure, IdleSurvivorDoesNotHoldBackTheSkip) {
  // Worker 3 is live at weight 0, so it never delivers anything: only the
  // splitter's watermark on its stream tells the merger it will not carry
  // what died with worker 0. (The fixed weights never move; picks of the
  // dead worker fail over to worker 1.)
  rt::LocalRegionConfig cfg = rt_config(4);
  cfg.failure_events = {{millis(1200), 0, /*restart=*/false}};
  const LiveRun run = live_run(
      cfg,
      std::make_unique<OraclePolicy>(
          4, std::vector<OraclePolicy::Phase>{{0, {1.0, 1.0, 1.0, 0.0}}}),
      millis(2500));
  expect_live_after(run, millis(1200));
  EXPECT_EQ(run.stats.final_weights[3], 0);
}

TEST(RuntimeFailure, GapSkipKillThenRestartStaysLive) {
  rt::LocalRegionConfig cfg = rt_config(3);
  cfg.failure_events = {{millis(1200), 1, /*restart=*/false},
                        {millis(1700), 1, /*restart=*/true}};
  const LiveRun run = live_run(
      cfg, std::make_unique<RoundRobinPolicy>(3), millis(2500));
  expect_live_after(run, millis(1200));
  EXPECT_EQ(run.stats.reconnects, 1u);
}

}  // namespace
}  // namespace slb
