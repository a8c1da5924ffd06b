// Delivery-semantics tests (DESIGN.md §10): the replay buffer, the
// merger's dedup/late-discard accounting, at-least-once crash recovery in
// the simulator and the threaded runtime, replay back pressure, the
// control loop's ack-stall watchdog rung, and the runtime's shed-range
// announcements.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "control/region_control.h"
#include "core/policies.h"
#include "delivery/delivery.h"
#include "delivery/send_core.h"
#include "obs/journal.h"
#include "runtime/local_region.h"
#include "obs/metrics.h"
#include "sim/merger.h"
#include "sim/region.h"
#include "util/time.h"

namespace slb {
namespace {

using delivery::DeliveryMode;
using delivery::ReplayBuffer;

// --- ReplayBuffer ----------------------------------------------------

TEST(ReplayBufferTest, CumulativeAckTrimsEverythingBelow) {
  ReplayBuffer<int> buf;
  for (std::uint64_t s = 0; s < 10; ++s) buf.push(s, 8, static_cast<int>(s));
  EXPECT_EQ(buf.size(), 10u);
  EXPECT_EQ(buf.bytes(), 80u);
  EXPECT_EQ(buf.ack(7), 7u);  // seqs 0..6 released
  EXPECT_EQ(buf.size(), 3u);
  EXPECT_EQ(buf.bytes(), 24u);
  // Acks are cumulative: a stale (lower) ack removes nothing more.
  EXPECT_EQ(buf.ack(3), 0u);
  EXPECT_EQ(buf.size(), 3u);
}

TEST(ReplayBufferTest, ByteCapBlocksButEmptyBufferAlwaysAdmits) {
  ReplayBuffer<int> buf(100);
  EXPECT_FALSE(buf.would_block(1000));  // empty admits even an oversize
  buf.push(0, 1000, 0);
  EXPECT_TRUE(buf.would_block(1));  // over cap: back-pressure the source
  buf.ack(1);
  EXPECT_FALSE(buf.would_block(99));
  buf.push(1, 60, 1);
  EXPECT_FALSE(buf.would_block(40));  // exactly at cap is admitted
  EXPECT_TRUE(buf.would_block(41));
}

TEST(ReplayBufferTest, TakeAllDrainsForCrashReplay) {
  ReplayBuffer<int> buf(100);
  buf.push(5, 10, 50);
  buf.push(6, 10, 60);
  auto taken = buf.take_all();
  ASSERT_EQ(taken.size(), 2u);
  EXPECT_EQ(taken[0].seq, 5u);
  EXPECT_EQ(taken[1].payload, 60);
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.bytes(), 0u);
  EXPECT_FALSE(buf.would_block(1000));  // reusable after the drain
}

TEST(ReplayBufferTest, AckRemovesEntriesBehindNewerSequences) {
  // After a crash replay lands on a surviving channel, its buffer holds
  // e.g. [10, 11, 3, 4]: fresh sends followed by re-sent older sequences.
  // A cumulative ack must find and drop the old ones mid-buffer.
  ReplayBuffer<int> buf;
  buf.push(10, 8, 0);
  buf.push(11, 8, 0);
  buf.push(3, 8, 0);
  buf.push(4, 8, 0);
  EXPECT_EQ(buf.ack(5), 2u);  // 3 and 4 released
  EXPECT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf.bytes(), 16u);
  EXPECT_EQ(buf.ack(12), 2u);
  EXPECT_TRUE(buf.empty());
}

TEST(ReplayBufferTest, RetransmitKeepsSequenceOrderSoAckTrimsThePrefix) {
  // A crash replay lands 3 and 5 on a channel already holding 4, 10 and
  // 11: each goes in before the newer entries, so an ack between them
  // trims exactly the older prefix and take_all comes back ascending.
  ReplayBuffer<int> buf;
  buf.push(4, 8, 4);
  buf.push(10, 8, 10);
  buf.push(11, 8, 11);
  buf.push(3, 8, 3);
  buf.push(5, 8, 5);
  EXPECT_EQ(buf.ack(5), 2u);  // 3 and 4 released
  EXPECT_EQ(buf.size(), 3u);
  EXPECT_EQ(buf.bytes(), 24u);
  buf.push(12, 8, 12);
  const auto taken = buf.take_all();
  std::vector<std::uint64_t> seqs;
  for (const auto& e : taken) {
    EXPECT_EQ(static_cast<std::uint64_t>(e.payload), e.seq);
    seqs.push_back(e.seq);
  }
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{5, 10, 11, 12}));
}

// --- sim merger dedup / late-discard accounting -----------------------

TEST(MergerDelivery, ReplayEchoBelowCursorIsDupDiscard) {
  sim::Simulator sim;
  obs::MetricsRegistry metrics;
  sim::Merger m(&sim, metrics, 2, sim::Merger::kUnbounded, /*ordered=*/true,
                DeliveryMode::kAtLeastOnce);
  EXPECT_TRUE(m.try_push(0, sim::Tuple{0}));
  EXPECT_TRUE(m.try_push(0, sim::Tuple{1}));
  EXPECT_EQ(m.emitted(), 2u);
  // The original raced the crash and won; the replayed copy arrives via
  // the survivor after release. Strict order demands a silent discard.
  EXPECT_TRUE(m.try_push(1, sim::Tuple{0}));
  EXPECT_EQ(m.emitted(), 2u);
  EXPECT_EQ(m.dup_discards(), 1u);
  EXPECT_EQ(m.late_discards(), 0u);
  EXPECT_EQ(m.expected_seq(), 2u);
}

TEST(MergerDelivery, ArrivalAfterGapDeclarationIsLateDiscard) {
  // GapSkip bugfix: a tuple outliving its declared gap used to silently
  // corrupt the order accounting; now it is dropped and counted.
  sim::Simulator sim;
  obs::MetricsRegistry metrics;
  sim::Merger m(&sim, metrics, 2, sim::Merger::kUnbounded);
  EXPECT_TRUE(m.try_push(0, sim::Tuple{1}));  // gated on seq 0
  EXPECT_EQ(m.emitted(), 0u);
  m.note_lost(0, 1);  // seq 0 declared dead with its worker
  EXPECT_EQ(m.emitted(), 1u);
  EXPECT_EQ(m.gaps(), 1u);
  // ...but the "dead" tuple limps in after all.
  EXPECT_TRUE(m.try_push(1, sim::Tuple{0}));
  EXPECT_EQ(m.emitted(), 1u);
  EXPECT_EQ(m.late_discards(), 1u);
  EXPECT_EQ(m.dup_discards(), 0u);
  EXPECT_EQ(m.expected_seq(), 2u);
}

TEST(MergerDelivery, ReplayBehindNewerQueuedSequencesStillReleases) {
  // A replayed old sequence landing on a connection whose FIFO already
  // holds newer sequences would sit behind them forever under head-only
  // scanning; the side pool must rescue it.
  sim::Simulator sim;
  obs::MetricsRegistry metrics;
  sim::Merger m(&sim, metrics, 2, sim::Merger::kUnbounded, /*ordered=*/true,
                DeliveryMode::kAtLeastOnce);
  EXPECT_TRUE(m.try_push(0, sim::Tuple{1}));
  EXPECT_TRUE(m.try_push(0, sim::Tuple{2}));
  EXPECT_TRUE(m.try_push(1, sim::Tuple{3}));
  EXPECT_EQ(m.emitted(), 0u);  // everything gated on seq 0
  // The replay of seq 0 arrives on connection 1, behind queued seq 3.
  EXPECT_TRUE(m.try_push(1, sim::Tuple{0}));
  EXPECT_EQ(m.emitted(), 4u);
  EXPECT_EQ(m.pooled(), 0u);
  EXPECT_EQ(m.dup_discards(), 0u);
  EXPECT_EQ(m.expected_seq(), 4u);
}

// --- sim region: at-least-once crash recovery -------------------------

sim::RegionConfig alo_region(int workers) {
  sim::RegionConfig cfg;
  cfg.workers = workers;
  cfg.base_cost = micros(5);
  cfg.send_overhead = micros(1);
  cfg.sample_period = millis(5);
  cfg.delivery.mode = DeliveryMode::kAtLeastOnce;
  return cfg;
}

TEST(SimDelivery, CrashReplayDeliversEverySequenceWithoutGaps) {
  sim::Region region(alo_region(3),
                     std::make_unique<LoadBalancingPolicy>(3));
  // Early enough that the open-throttle source is still far from the
  // emission target, with the crashed channel's queues full.
  region.inject_fault({sim::FaultKind::kWorkerCrash, 1, millis(10), 0});
  const sim::RunResult r =
      region.run_until_emitted(20000, /*deadline=*/seconds(5));

  ASSERT_TRUE(r.reached_target);
  // The crash lost in-flight copies, but every sequence was replayed
  // onto the survivors: zero gaps in the output, strict prefix order.
  EXPECT_GT(region.lost_tuples(), 0u);
  EXPECT_EQ(region.merger().gaps(), 0u);
  EXPECT_GT(region.splitter().retransmits(), 0u);
  EXPECT_EQ(region.merger().expected_seq(), region.merger().emitted());
}

TEST(SimDelivery, ReplayRacesRecoveryWithoutGapsOrStalls) {
  sim::Region region(alo_region(3),
                     std::make_unique<LoadBalancingPolicy>(3));
  region.inject_fault({sim::FaultKind::kWorkerCrash, 0, millis(10), 0});
  region.inject_fault({sim::FaultKind::kWorkerRecover, 0, millis(20), 0});
  const sim::RunResult r =
      region.run_until_emitted(20000, /*deadline=*/seconds(5));

  ASSERT_TRUE(r.reached_target);
  EXPECT_EQ(region.merger().gaps(), 0u);
  EXPECT_EQ(region.merger().expected_seq(), region.merger().emitted());
  EXPECT_FALSE(region.worker(0).down());
}

TEST(SimDelivery, TinyReplayCapBackpressuresWithoutDeadlock) {
  sim::RegionConfig cfg = alo_region(2);
  // Room for ~4 tuples per channel: the replay window, not the socket
  // buffer, becomes the binding constraint almost immediately.
  cfg.delivery.replay_buffer_bytes = 4 * sizeof(sim::Tuple);
  sim::Region region(cfg, std::make_unique<LoadBalancingPolicy>(2));
  region.run_for(millis(100));

  // Progress continues (acks drain the windows)...
  EXPECT_GT(region.emitted(), 100u);
  // ...the cap was respected...
  EXPECT_LE(region.splitter().replay_bytes(),
            2 * cfg.delivery.replay_buffer_bytes);
  // ...and the wait was charged as blocking, keeping the signal truthful.
  EXPECT_GT(region.splitter().blocks(), 0u);
}

TEST(SimDelivery, GapSkipRemainsDefaultAndCountsGaps) {
  // Control experiment for the mode switch itself: same fault schedule,
  // default GapSkip — losses surface as gaps and nothing is replayed.
  sim::RegionConfig cfg = alo_region(3);
  cfg.delivery = {};
  sim::Region region(cfg, std::make_unique<LoadBalancingPolicy>(3));
  region.inject_fault({sim::FaultKind::kWorkerCrash, 1, millis(50), 0});
  region.run_for(millis(200));

  EXPECT_GT(region.lost_tuples(), 0u);
  EXPECT_EQ(region.merger().gaps(), region.lost_tuples());
  EXPECT_EQ(region.splitter().retransmits(), 0u);
  EXPECT_EQ(region.merger().dup_discards(), 0u);
}

/// Runs `region` with a journal attached and worker 1 crashing at 20 ms;
/// returns the journal's lines.
std::vector<std::string> crash_journal(sim::RegionConfig cfg) {
  sim::Region region(cfg, std::make_unique<LoadBalancingPolicy>(3));
  obs::DecisionJournal journal;
  region.set_journal(&journal);
  region.inject_fault({sim::FaultKind::kWorkerCrash, 1, millis(20), 0});
  region.run_for(millis(40));
  region.set_journal(nullptr);
  return journal.lines();
}

bool has(const std::string& line, const char* fragment) {
  return line.find(fragment) != std::string::npos;
}

TEST(SimDelivery, CrashJournalsTheReplayRightBeforeTheMarkDown) {
  const std::vector<std::string> alo = crash_journal(alo_region(3));
  const auto down = std::find_if(alo.begin(), alo.end(), [](const auto& l) {
    return has(l, R"("ev":"mark_down","j":1,)");
  });
  ASSERT_NE(down, alo.end());
  ASSERT_NE(down, alo.begin());
  EXPECT_TRUE(has(*(down - 1), R"("ev":"replay",)"));
  EXPECT_TRUE(has(*(down - 1), R"("ch":1,)"));

  sim::RegionConfig gap_skip = alo_region(3);
  gap_skip.delivery = {};
  const std::vector<std::string> gs = crash_journal(gap_skip);
  EXPECT_TRUE(std::any_of(gs.begin(), gs.end(), [](const auto& l) {
    return has(l, R"("ev":"mark_down","j":1,)");
  }));
  EXPECT_TRUE(std::none_of(gs.begin(), gs.end(), [](const auto& l) {
    return has(l, R"("ev":"replay")");
  }));
}

// --- control loop: ack-stall watchdog rung ----------------------------

/// A delivery state whose cumulative ack is frozen with tuples unacked.
constexpr control::DeliverySample kStalled{7, 42};

delivery::DeliveryConfig ack_stall_delivery(DeliveryMode mode, int periods) {
  delivery::DeliveryConfig cfg;
  cfg.mode = mode;
  cfg.ack_stall_periods = periods;
  return cfg;
}

/// A bare two-channel loop whose region runs in `mode` with the
/// ack-stall rung set to `periods`.
struct StallLoop {
  explicit StallLoop(int periods,
                     DeliveryMode mode = DeliveryMode::kAtLeastOnce)
      : loop(2, &policy, {}, 0, ack_stall_delivery(mode, periods), metrics) {}

  /// Runs period `i` of the idle region reporting `sample`.
  void idle_tick(int i, const control::DeliverySample& sample = kStalled) {
    const std::vector<DurationNs> blocked{0, 0};
    loop.tick(i * millis(10), millis(10), blocked, {}, {}, sample);
  }

  LoadBalancingPolicy policy{2};
  obs::MetricsRegistry metrics;
  control::RegionControlLoop loop;
};

TEST(AckStallRung, FrozenAckEscalatesAndJournals) {
  StallLoop s(3);
  obs::DecisionJournal journal;
  s.loop.set_journal(&journal);

  // Tick 1 records the baseline ack; ticks 2..4 are the first stalled
  // streak, ticks 5..7 the second.
  for (int i = 1; i <= 7; ++i) s.idle_tick(i);

  EXPECT_EQ(s.loop.ack_stalls(), 2u);
  // Each firing climbs one watchdog rung (stage 1: forced throttle,
  // stage 2: tightened shedding).
  EXPECT_EQ(s.loop.watchdog_stage(), 2);
  int stall_lines = 0;
  int escalate_lines = 0;
  for (const std::string& line : journal.lines()) {
    if (has(line, "\"ack_stall\"")) ++stall_lines;
    if (has(line, "\"watchdog_escalate\"")) ++escalate_lines;
  }
  EXPECT_EQ(stall_lines, 2);
  EXPECT_EQ(escalate_lines, 2);
}

TEST(AckStallRung, AckProgressResetsTheStreak) {
  StallLoop s(3);
  for (int i = 1; i <= 3; ++i) s.idle_tick(i);
  // The merger released something after all.
  control::DeliverySample progressed = kStalled;
  progressed.cum_ack += 10;
  for (int i = 4; i <= 6; ++i) s.idle_tick(i, progressed);

  EXPECT_EQ(s.loop.ack_stalls(), 0u);
  EXPECT_EQ(s.loop.watchdog_stage(), 0);
}

TEST(AckStallRung, AllChannelsDownIsNotAStall) {
  // Nothing can deliver, let alone ack: the reconnect machinery owns
  // this case and the rung must stay quiet.
  StallLoop s(2);
  s.loop.mark_channel_down(/*now=*/0, 0, 0, 0);
  s.loop.mark_channel_down(/*now=*/0, 1, 0, 0);

  for (int i = 1; i <= 6; ++i) s.idle_tick(i);
  EXPECT_EQ(s.loop.ack_stalls(), 0u);
}

TEST(AckStallRung, GapSkipNeverArmsTheRung) {
  // GapSkip keeps no acks to stall on: the rung length is ignored.
  StallLoop s(3, DeliveryMode::kGapSkip);
  for (int i = 1; i <= 7; ++i) s.idle_tick(i);

  EXPECT_EQ(s.loop.ack_stalls(), 0u);
  EXPECT_EQ(s.loop.watchdog_stage(), 0);
}

// --- threaded runtime: at-least-once over loopback TCP ----------------

rt::LocalRegionConfig rt_alo(int workers) {
  rt::LocalRegionConfig cfg;
  cfg.workers = workers;
  cfg.multiplies = 2000;
  cfg.sample_period = millis(20);
  cfg.delivery.mode = DeliveryMode::kAtLeastOnce;
  return cfg;
}

TEST(RtDelivery, CleanRunIsExactlyOnce) {
  rt::LocalRegion region(rt_alo(2),
                         std::make_unique<LoadBalancingPolicy>(2));
  const rt::LocalRunStats stats = region.run(millis(200));

  EXPECT_TRUE(stats.order_ok);
  EXPECT_GT(stats.sent, 0u);
  EXPECT_EQ(stats.emitted, stats.sent);
  EXPECT_EQ(stats.gaps, 0u);
  EXPECT_EQ(stats.dup_discards, 0u);
  EXPECT_EQ(stats.late_discards, 0u);
}

TEST(RtDelivery, KillMidRunReplaysOntoSurvivorWithoutGaps) {
  rt::LocalRegionConfig cfg = rt_alo(2);
  // Channel 0 holds a backlog of unacked frames when it is killed: its
  // worker serves 10x slower from the start, and the first sample, which
  // could move weight off it, comes only after the kill. Without the
  // backlog the kill can land just after its last frame was acked, and
  // nothing replays.
  cfg.sample_period = millis(100);
  cfg.load_events.push_back({0, 0, 10.0});
  cfg.failure_events.push_back({millis(60), 0, /*restart=*/false});
  rt::LocalRegion region(cfg, std::make_unique<LoadBalancingPolicy>(2));
  // Failure context, one line per sample: whether channel 0 held nothing
  // unacked at the kill (replay bytes and ack lag near 0) or its stream
  // had stalled (lag growing, splitter not blocking).
  const obs::Gauge& replay_bytes =
      region.metrics().gauge("splitter.replay_buffer_bytes");
  const obs::Gauge& ack_lag = region.metrics().gauge("splitter.ack_lag");
  std::string samples;
  region.set_sample_hook([&](const rt::LocalSample& s) {
    samples += "t=" + std::to_string(s.elapsed / millis(1)) + "ms w=[";
    for (const Weight w : s.weights) samples += " " + std::to_string(w);
    samples += " ] block=[";
    for (const double r : region.control().last_actions().block_rates) {
      samples += " " + std::to_string(r).substr(0, 4);
    }
    samples += " ] replay_bytes=" + std::to_string(replay_bytes.value()) +
               " ack_lag=" + std::to_string(ack_lag.value()) + "\n";
  });
  const rt::LocalRunStats stats = region.run(millis(300));
  SCOPED_TRACE("samples:\n" + samples);

  // GapSkip would report every tuple caught in the dead worker's buffers
  // as a gap; at-least-once replays them onto the survivor instead.
  EXPECT_GE(stats.channel_failures, 1u);
  EXPECT_GT(stats.retransmits, 0u);
  EXPECT_EQ(stats.gaps, 0u);
  EXPECT_EQ(stats.emitted, stats.sent);
  EXPECT_TRUE(stats.order_ok);
  // Replay echoes are possible (original and replay both arriving) but
  // each re-sent frame is sent once per retransmit.
  EXPECT_LE(stats.dup_discards, stats.retransmits);
}

TEST(RtDelivery, ReplayRacesReconnect) {
  rt::LocalRegionConfig cfg = rt_alo(2);
  cfg.failure_events.push_back({millis(60), 0, /*restart=*/false});
  cfg.failure_events.push_back({millis(90), 0, /*restart=*/true});
  rt::LocalRegion region(cfg, std::make_unique<LoadBalancingPolicy>(2));
  const rt::LocalRunStats stats = region.run(millis(300));

  EXPECT_GE(stats.channel_failures, 1u);
  EXPECT_EQ(stats.gaps, 0u);
  EXPECT_EQ(stats.emitted, stats.sent);
  EXPECT_TRUE(stats.order_ok);
}

/// Alternates between channels 0 and 1 until told to route everything
/// to channel 1.
class AlternateThenOnlyOne : public SplitPolicy {
 public:
  ConnectionId pick_connection() override {
    if (only_one_) return 1;
    next_ = 1 - next_;
    return next_;
  }
  const WeightVector& weights() const override { return weights_; }
  std::string name() const override { return "alternate-then-1"; }
  void route_all_to_one() {
    only_one_ = true;
    weights_ = {0, kWeightUnits};
  }

 private:
  int next_ = 1;
  bool only_one_ = false;
  WeightVector weights_{kWeightUnits / 2, kWeightUnits / 2};
};

TEST(RtDelivery, DeathAfterLastTickIsReplayedBeforeShutdown) {
  // Worker 0 dies at the last tick and is never sent to again: only the
  // splitter's wait, which watches every live connection for FIN/RST, can
  // find it, and it must do so before the FINs so the frames that died
  // with it replay onto worker 1. The replay cap is large enough that the
  // survivor's replay window never fills.
  rt::LocalRegionConfig cfg = rt_alo(2);
  cfg.work_mode = rt::WorkMode::kTimed;
  cfg.load_events.push_back({0, 0, 4.0});
  cfg.sample_period = millis(50);
  cfg.delivery.replay_buffer_bytes = 64 << 20;
  auto policy = std::make_unique<AlternateThenOnlyOne>();
  AlternateThenOnlyOne* routing = policy.get();
  rt::LocalRegion region(cfg, std::move(policy));
  bool killed = false;
  region.set_sample_hook([&](const rt::LocalSample& sample) {
    if (killed || sample.elapsed < millis(100)) return;
    region.worker(0).kill();
    routing->route_all_to_one();
    killed = true;
  });
  // The 100 ms tick can slip by several ms on a loaded host; any tick
  // that fires before the end is still the last one (the next is due
  // 50 ms later).
  const rt::LocalRunStats stats = region.run(millis(140));

  ASSERT_TRUE(killed);
  EXPECT_GT(stats.retransmits, 0u);
  EXPECT_EQ(stats.gaps, 0u);
  EXPECT_EQ(stats.emitted, stats.sent);
  EXPECT_TRUE(stats.order_ok);
}

/// Sends the first `k` tuples to channel 0 and everything after to 1.
class FirstKOnZero : public SplitPolicy {
 public:
  explicit FirstKOnZero(int k) : left_(k) {}
  ConnectionId pick_connection() override {
    if (left_ == 0) return 1;
    --left_;
    return 0;
  }
  const WeightVector& weights() const override { return weights_; }
  std::string name() const override { return "first-k-on-0"; }

 private:
  int left_;
  WeightVector weights_{kWeightUnits / 2, kWeightUnits / 2};
};

TEST(RtDelivery, DeathOfAnIdleChannelWakesTheWait) {
  // Worker 0 gets 20 tuples at 20 ms each, then nothing more is sent to
  // it, and it is killed at the 100 ms tick with most of them unacked.
  // No send can discover the death; only the splitter's wait, which
  // watches every live connection for FIN/RST, can — and it must do so
  // mid-run, well before the shutdown drain, so the dead channel's
  // frames replay onto worker 1.
  rt::LocalRegionConfig cfg = rt_alo(2);
  cfg.work_mode = rt::WorkMode::kTimed;
  cfg.load_events.push_back({0, 0, 10'000.0});
  cfg.sample_period = millis(50);
  cfg.delivery.replay_buffer_bytes = 64 << 20;
  rt::LocalRegion region(cfg, std::make_unique<FirstKOnZero>(20));
  const obs::Counter& failures =
      region.metrics().counter("splitter.channel_failures");
  int ticks_since_kill = -1;  // -1: not killed yet
  std::uint64_t failures_next_tick = 0;
  region.set_sample_hook([&](const rt::LocalSample& sample) {
    if (ticks_since_kill < 0) {
      if (sample.elapsed < millis(100)) return;
      region.worker(0).kill();
      ticks_since_kill = 0;
    } else if (++ticks_since_kill == 1) {
      failures_next_tick = failures.value();
    }
  });
  const rt::LocalRunStats stats = region.run(millis(300));

  ASSERT_GE(ticks_since_kill, 1);
  EXPECT_EQ(failures_next_tick, 1u);  // found before the next tick
  EXPECT_GT(stats.retransmits, 0u);
  EXPECT_EQ(stats.gaps, 0u);
  EXPECT_EQ(stats.emitted, stats.sent);
  EXPECT_TRUE(stats.order_ok);
}

TEST(RtDelivery, OpenLoopSheddingAnnouncesEveryGap) {
  // A source offering 5x the region's capacity: the backlog crosses the
  // high watermark within milliseconds, every time, so the shed ranges
  // always reach the merger as gap frames.
  for (const DeliveryMode mode :
       {DeliveryMode::kGapSkip, DeliveryMode::kAtLeastOnce}) {
    SCOPED_TRACE(mode == DeliveryMode::kGapSkip ? "gap-skip" : "at-least-once");
    rt::LocalRegionConfig cfg = rt_alo(2);
    cfg.delivery.mode = mode;
    cfg.work_mode = rt::WorkMode::kTimed;
    cfg.multiplies = 100'000;  // 100 us per tuple: 20k tuples/s capacity
    cfg.source_interval = micros(10);
    cfg.protection.shed_high_watermark = 64;
    cfg.protection.shed_low_watermark = 32;
    rt::LocalRegion region(cfg, std::make_unique<RoundRobinPolicy>(2));
    const rt::LocalRunStats stats = region.run(millis(150));

    EXPECT_GT(stats.shed, 0u);
    EXPECT_EQ(stats.gaps, stats.shed);
    EXPECT_EQ(stats.emitted, stats.sent);
    EXPECT_EQ(stats.late_discards, 0u);
    EXPECT_TRUE(stats.order_ok);
  }
}

TEST(RtDelivery, ShedWithLowAboveHighKeepsOrder) {
  // A low watermark above the high one: a backlog between the two must
  // shed nothing (it used to shed a wrapped-around count that moved the
  // sequence counter backwards), one above both sheds down to the low.
  rt::LocalRegionConfig cfg = rt_alo(2);
  cfg.delivery.mode = DeliveryMode::kGapSkip;
  cfg.work_mode = rt::WorkMode::kTimed;
  cfg.multiplies = 100'000;  // 100 us per tuple: 20k tuples/s capacity
  cfg.source_interval = micros(10);
  cfg.protection.shed_high_watermark = 32;
  cfg.protection.shed_low_watermark = 64;
  rt::LocalRegion region(cfg, std::make_unique<RoundRobinPolicy>(2));
  const rt::LocalRunStats stats = region.run(millis(150));

  EXPECT_TRUE(stats.order_ok);
  EXPECT_EQ(stats.gaps, stats.shed);
  EXPECT_EQ(stats.emitted + stats.gaps, stats.sent + stats.shed);
}

}  // namespace
}  // namespace slb
