// The splitter-side delivery core shared by both splitters (DESIGN.md §10).
//
// Two layers of evidence:
//   1. unit cases for each piece the core owns (sequence issuance,
//      shedding, source pacing, liveness and failover routing,
//      admission, commit, the ack cursor, crash replay, the running
//      gauges);
//   2. an exhaustive model check: SendCore wired to ReleaseCore over
//      per-channel in-flight FIFOs, exploring every interleaving of send
//      (on every routable channel), deliver, ack generation and delayed ack
//      delivery, crash, recover and shed in small regions, with a tiny
//      replay cap.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "delivery/release_core.h"
#include "delivery/send_core.h"
#include "obs/metrics.h"
#include "util/time.h"

namespace slb {
namespace {

using delivery::DeliveryMode;
using Core = delivery::SendCore<std::uint64_t>;

/// Commits the next fresh sequence on channel j (1 byte per tuple).
std::uint64_t send_fresh(Core& core, int j) {
  const std::uint64_t seq = core.next_seq();
  core.commit(j, seq, 1, seq, /*retransmit=*/false);
  return seq;
}

/// Commits the oldest pending replay on channel j.
std::uint64_t send_replay(Core& core, int j) {
  const std::uint64_t seq = core.next_replay()->seq;
  core.commit(j, seq, 1, seq, /*retransmit=*/true);
  return seq;
}

// --- 1. unit cases ----------------------------------------------------

TEST(SendCore, FreshCommitsAndShedsConsumeSequencesInOrder) {
  obs::MetricsRegistry metrics;
  Core core(metrics, "", 2, DeliveryMode::kGapSkip);
  EXPECT_EQ(send_fresh(core, 0), 0u);
  EXPECT_EQ(send_fresh(core, 1), 1u);
  const Core::Range dropped = core.shed(3);
  EXPECT_EQ(dropped.first, 2u);
  EXPECT_EQ(dropped.count, 3u);
  EXPECT_EQ(send_fresh(core, 1), 5u);
  EXPECT_EQ(core.next_seq(), 6u);
  EXPECT_EQ(core.sent(0), 1u);
  EXPECT_EQ(core.sent(1), 2u);
  EXPECT_EQ(core.total_sent(), 3u);
  EXPECT_EQ(core.shed(), 3u);
  EXPECT_EQ(core.shed(0).count, 0u);  // an empty shed consumes nothing
  EXPECT_EQ(core.next_seq(), 6u);
}

TEST(SendCore, ShedBacklogDropsDownToTheLowWatermarkOnlyPastBoth) {
  // One tuple released per ns from t = 0. `shed_at` sheds at the instant
  // the backlog is `backlog` (arrival() is the release clock in an open
  // loop), so each case reads as a backlog against the watermarks.
  obs::MetricsRegistry metrics;
  Core core(metrics, "", 1, DeliveryMode::kGapSkip, 0, /*source_interval=*/1);
  core.start(0);
  const auto shed_at = [&](std::uint64_t backlog, std::uint64_t high,
                           std::uint64_t low) {
    return core.shed_backlog(
        core.arrival(0) + static_cast<DurationNs>(backlog), high, low);
  };
  EXPECT_EQ(shed_at(100, 0, 0).count, 0u);   // shedding off
  EXPECT_EQ(shed_at(63, 64, 32).count, 0u);  // below high
  const Core::Range dropped = shed_at(70, 64, 32);
  EXPECT_EQ(dropped.first, 0u);
  EXPECT_EQ(dropped.count, 38u);  // down to the low watermark
  // Equal watermarks (the watchdog halves 3/2 into 1/1): a backlog at
  // the mark leaves nothing to drop, so no empty gap range is issued.
  EXPECT_EQ(shed_at(1, 1, 1).count, 0u);
  EXPECT_EQ(shed_at(2, 1, 1).count, 1u);
  // Low above high: a backlog between them must not underflow.
  EXPECT_EQ(shed_at(40, 32, 64).count, 0u);
  EXPECT_EQ(shed_at(64, 32, 64).count, 0u);
  EXPECT_EQ(shed_at(70, 32, 64).count, 6u);
  EXPECT_EQ(core.next_seq(), 45u);
  EXPECT_EQ(core.shed(), 45u);
}

TEST(SendCore, RejectsANegativeSourceInterval) {
  obs::MetricsRegistry metrics;
  EXPECT_THROW(Core(metrics, "", 1, DeliveryMode::kGapSkip, 0, -1),
               std::invalid_argument);
  EXPECT_NO_THROW(Core(metrics, "", 1, DeliveryMode::kGapSkip, 0, 0));
}

TEST(SendCore, PacingThrottleStretchesTheBusyTime) {
  obs::MetricsRegistry metrics;
  Core core(metrics, "", 1, DeliveryMode::kGapSkip);  // closed loop
  core.start(0);
  core.set_throttle(0.25);
  core.paced(10'000, 11'000, /*fresh=*/true);  // a 1000 ns send
  EXPECT_EQ(core.ready_at(true), 14'000);
  EXPECT_EQ(core.ready_at(false), 14'000);
  core.set_throttle(1.0);
  core.paced(14'000, 15'000, /*fresh=*/true);
  EXPECT_EQ(core.ready_at(true), 15'000);
}

TEST(SendCore, PacingOpenLoopReleaseBacklogAndArrivalFollowTheInterval) {
  obs::MetricsRegistry metrics;
  Core core(metrics, "", 1, DeliveryMode::kGapSkip, 0,
            /*source_interval=*/1000);
  core.start(5000);
  EXPECT_EQ(core.arrival(9999), 5000);
  EXPECT_EQ(core.ready_at(true), 5000);
  EXPECT_EQ(core.backlog(5000), 0u);
  EXPECT_EQ(core.backlog(7999), 2u);
  core.paced(5000, 5100, /*fresh=*/true);  // tuple 0 goes out on time
  EXPECT_EQ(core.arrival(9999), 6000);
  EXPECT_EQ(core.ready_at(true), 6000);   // waits for tuple 1's release
  EXPECT_EQ(core.ready_at(false), 5100);  // a replay waits for nothing
  EXPECT_EQ(core.backlog(7999), 1u);
  // Arrears: sent late, tuple 1 keeps its nominal stamp and tuple 2 is
  // ready as soon as the splitter is free.
  core.paced(8000, 8100, /*fresh=*/true);
  EXPECT_EQ(core.arrival(9999), 7000);
  EXPECT_EQ(core.ready_at(true), 8100);
  // A closed loop has no release clock.
  Core closed(metrics, "closed.", 1, DeliveryMode::kGapSkip);
  closed.start(5000);
  EXPECT_EQ(closed.arrival(9999), 9999);
  EXPECT_EQ(closed.backlog(1'000'000), 0u);
}

TEST(SendCore, PacingShedMovesTheReleaseClockPastTheDroppedTuples) {
  obs::MetricsRegistry metrics;
  Core core(metrics, "", 1, DeliveryMode::kGapSkip, 0,
            /*source_interval=*/1000);
  core.start(0);
  EXPECT_EQ(core.backlog(10'500), 10u);
  const Core::Range dropped = core.shed_backlog(10'500, 8, 2);
  EXPECT_EQ(dropped.first, 0u);
  EXPECT_EQ(dropped.count, 8u);
  EXPECT_EQ(core.backlog(10'500), 2u);
  EXPECT_EQ(core.arrival(10'500), 8000);  // the oldest survivor, seq 8
  EXPECT_EQ(core.ready_at(true), 8000);
  EXPECT_EQ(core.next_seq(), 8u);
}

TEST(SendCore, PacingRetransmitWaitsForTheBusyTimeButNotTheRelease) {
  obs::MetricsRegistry metrics;
  Core core(metrics, "", 1, DeliveryMode::kGapSkip, 0,
            /*source_interval=*/1000);
  core.start(0);
  core.set_throttle(0.5);
  core.paced(0, 100, /*fresh=*/true);
  EXPECT_EQ(core.ready_at(false), 200);
  EXPECT_EQ(core.ready_at(true), 1000);
  core.paced(200, 300, /*fresh=*/false);  // a retransmit
  EXPECT_EQ(core.ready_at(false), 400);
  EXPECT_EQ(core.ready_at(true), 1000);  // consumed no release
}

TEST(SendCore, RouteFailsOverToTheNextLiveChannelInRingOrder) {
  obs::MetricsRegistry metrics;
  Core core(metrics, "", 3, DeliveryMode::kGapSkip);
  EXPECT_EQ(core.route(1), 1);
  EXPECT_EQ(core.failovers(), 0u);
  core.set_up(1, false);
  EXPECT_EQ(core.route(1), 2);
  core.set_up(2, false);
  EXPECT_EQ(core.route(1), 0);  // wraps around the ring
  EXPECT_EQ(core.route(2), 0);
  EXPECT_EQ(core.failovers(), 3u);
  core.set_up(0, false);
  EXPECT_EQ(core.route(0), -1);  // total outage: not a failover
  EXPECT_EQ(core.failovers(), 3u);
  core.set_up(1, true);
  EXPECT_TRUE(core.up(1));
  EXPECT_EQ(core.route(1), 1);
}

TEST(SendCore, GapSkipBuffersNothingAndAdmitsEverything) {
  obs::MetricsRegistry metrics;
  Core core(metrics, "", 2, DeliveryMode::kGapSkip, /*replay_buffer_bytes=*/1);
  EXPECT_FALSE(core.at_least_once());
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(core.admits(0, 100));
    send_fresh(core, 0);
  }
  EXPECT_EQ(core.unacked(), 0u);
  EXPECT_EQ(core.replay_bytes(), 0u);
  EXPECT_FALSE(core.on_ack(2));  // no ack cursor without at-least-once
  EXPECT_EQ(core.acked(), 0u);
  const Core::Replay replay = core.quarantine(0);
  EXPECT_FALSE(core.up(0));
  EXPECT_EQ(replay.tuples, 0u);
  EXPECT_EQ(core.next_replay(), nullptr);
}

TEST(SendCore, AdmissionFollowsTheReplayCapAndAnEmptyBufferAlwaysAdmits) {
  obs::MetricsRegistry metrics;
  Core core(metrics, "", 2, DeliveryMode::kAtLeastOnce,
            /*replay_buffer_bytes=*/10);
  EXPECT_TRUE(core.admits(0, 100));  // empty: one oversized tuple is fine
  core.commit(0, core.next_seq(), 6, 0, false);
  EXPECT_TRUE(core.admits(0, 4));
  EXPECT_FALSE(core.admits(0, 5));
  EXPECT_TRUE(core.admits(1, 5));  // per channel
  core.on_ack(1);
  EXPECT_TRUE(core.admits(0, 10));
}

TEST(SendCore, CommitBuffersAndCountsSentApartFromRetransmits) {
  obs::MetricsRegistry metrics;
  Core core(metrics, "", 2, DeliveryMode::kAtLeastOnce);
  send_fresh(core, 0);
  send_fresh(core, 0);
  send_fresh(core, 1);
  EXPECT_EQ(core.unacked(), 3u);
  EXPECT_EQ(core.replay_bytes(), 3u);
  EXPECT_EQ(metrics.gauge("ack_lag").value(), 3);
  core.quarantine(0);
  EXPECT_EQ(core.unacked(), 3u);  // moved, not lost: 0 and 1 pending
  EXPECT_EQ(core.replay_bytes(), 1u);
  EXPECT_EQ(send_replay(core, 1), 0u);
  EXPECT_EQ(core.retransmits(), 1u);
  EXPECT_EQ(core.total_sent(), 3u);  // retransmits are not fresh sends
  EXPECT_EQ(core.sent(1), 1u);
  EXPECT_EQ(core.unacked(), 3u);  // two buffered on 1, one pending
  EXPECT_EQ(core.replay_bytes(), 2u);
}

TEST(SendCore, CumulativeAckTrimsBuffersAndPendingReplays) {
  obs::MetricsRegistry metrics;
  Core core(metrics, "", 2, DeliveryMode::kAtLeastOnce);
  for (int i = 0; i < 6; ++i) send_fresh(core, i % 2);
  core.quarantine(1);  // 1, 3, 5 pending
  EXPECT_TRUE(core.on_ack(4));
  EXPECT_EQ(core.acked(), 4u);
  EXPECT_EQ(core.next_replay()->seq, 5u);  // 1 and 3 released meanwhile
  EXPECT_EQ(core.unacked(), 2u);           // 4 buffered on 0, 5 pending
  EXPECT_EQ(core.replay_bytes(), 1u);
  EXPECT_EQ(metrics.gauge("ack_lag").value(), 2);
  EXPECT_FALSE(core.on_ack(4));  // nothing new
  EXPECT_FALSE(core.on_ack(3));  // stale
  EXPECT_EQ(core.acked(), 4u);
}

TEST(SendCore, QuarantineQueuesTheUnackedSuffixSortedBySequence) {
  obs::MetricsRegistry metrics;
  Core core(metrics, "", 3, DeliveryMode::kAtLeastOnce);
  for (int i = 0; i < 6; ++i) send_fresh(core, i % 3);  // 0:{0,3} 1:{1,4}
  core.on_ack(1);
  const Core::Replay first = core.quarantine(1);
  EXPECT_FALSE(core.up(1));
  EXPECT_EQ(first.tuples, 2u);
  EXPECT_EQ(first.bytes, 2u);
  // A replay lands on channel 0 behind newer entries, then 0 dies too:
  // the merged queue must still come out oldest first.
  EXPECT_EQ(send_replay(core, 0), 1u);
  const Core::Replay second = core.quarantine(0);
  EXPECT_EQ(second.tuples, 2u);  // 3, then the replayed 1
  std::vector<std::uint64_t> order;
  while (core.next_replay() != nullptr) order.push_back(send_replay(core, 2));
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 3, 4}));
  EXPECT_EQ(core.retransmits(), 4u);
  EXPECT_EQ(core.quarantine(0).tuples, 0u);  // already drained
}

TEST(SendCore, RetransmitCommitRemovesItsOwnSequenceAfterAQuarantine) {
  // The runtime reads the oldest replay, then a send attempt on another
  // channel quarantines it and queues older sequences ahead of the frame
  // in hand; committing that frame must remove exactly its sequence.
  obs::MetricsRegistry metrics;
  Core core(metrics, "", 3, DeliveryMode::kAtLeastOnce);
  for (int i = 0; i < 3; ++i) send_fresh(core, i);  // 0 on 0, 1 on 1, 2 on 2
  core.quarantine(2);
  const std::uint64_t in_hand = core.next_replay()->seq;
  EXPECT_EQ(in_hand, 2u);
  core.quarantine(0);  // queues 0 ahead of 2
  core.commit(1, in_hand, 1, in_hand, /*retransmit=*/true);
  ASSERT_NE(core.next_replay(), nullptr);
  EXPECT_EQ(core.next_replay()->seq, 0u);
  EXPECT_EQ(core.unacked(), 3u);  // 0 pending, 1 and 2 buffered on 1
}

TEST(SendCore, RetransmitCommitAfterItsSequenceWasAckedBuffersNothing) {
  // The runtime writes a replayed frame across several waits and reads
  // acks in between: an ack may release the sequence (and drop it from
  // the pending queue) before the last byte is written. The commit still
  // counts the retransmit but buffers nothing no ack would ever trim.
  obs::MetricsRegistry metrics;
  Core core(metrics, "", 2, DeliveryMode::kAtLeastOnce);
  for (int i = 0; i < 2; ++i) send_fresh(core, 0);
  core.quarantine(0);  // 0 and 1 pending
  const std::uint64_t in_hand = core.next_replay()->seq;
  EXPECT_TRUE(core.on_ack(1));  // 0 released meanwhile
  core.commit(1, in_hand, 1, in_hand, /*retransmit=*/true);
  EXPECT_EQ(core.retransmits(), 1u);
  ASSERT_NE(core.next_replay(), nullptr);
  EXPECT_EQ(core.next_replay()->seq, 1u);
  EXPECT_EQ(core.unacked(), 1u);  // only 1, still pending
  EXPECT_EQ(core.replay_bytes(), 0u);
}

TEST(SendCore, PublishesItsCountsUnderThePrefix) {
  // Every count lives in one registry handle, which the accessors read
  // back; at-least-once keeps both gauges current after each change.
  obs::MetricsRegistry metrics;
  Core core(metrics, "p.", 2, DeliveryMode::kAtLeastOnce);
  EXPECT_EQ(metrics.size(), 6u);
  const auto counter = [&](const std::string& name) {
    return metrics.counter("p." + name).value();
  };
  const auto gauge = [&](const std::string& name) {
    return metrics.gauge("p." + name).value();
  };
  send_fresh(core, 0);
  send_fresh(core, 1);
  EXPECT_EQ(gauge("replay_buffer_bytes"), 2);
  EXPECT_EQ(gauge("ack_lag"), 2);
  core.quarantine(1);  // 1 pending
  EXPECT_EQ(gauge("replay_buffer_bytes"), 1);
  EXPECT_EQ(core.route(1), 0);
  send_replay(core, 0);
  core.shed(2);
  EXPECT_EQ(gauge("replay_buffer_bytes"), 2);
  EXPECT_EQ(gauge("ack_lag"), 4);
  core.on_ack(3);
  EXPECT_EQ(gauge("replay_buffer_bytes"), 0);
  EXPECT_EQ(gauge("ack_lag"), 1);
  EXPECT_EQ(counter("sent"), 2u);
  EXPECT_EQ(counter("retransmits"), 1u);
  EXPECT_EQ(counter("failovers"), 1u);
  EXPECT_EQ(counter("shed"), 2u);
  EXPECT_EQ(core.total_sent(), counter("sent"));
  EXPECT_EQ(core.retransmits(), counter("retransmits"));
  EXPECT_EQ(core.failovers(), counter("failovers"));
  EXPECT_EQ(core.shed(), counter("shed"));
  EXPECT_EQ(core.replay_bytes(), 0u);

  // GapSkip keeps no acks or buffers: its gauges stay at 0.
  Core gap_skip(metrics, "g.", 1, DeliveryMode::kGapSkip);
  send_fresh(gap_skip, 0);
  gap_skip.shed(1);
  EXPECT_EQ(metrics.gauge("g.replay_buffer_bytes").value(), 0);
  EXPECT_EQ(metrics.gauge("g.ack_lag").value(), 0);
}

TEST(SendCore, ChargesBlockedTimePerChannel) {
  const auto blocked = [](const Core& c) {
    return std::vector<DurationNs>(c.blocked_ns().begin(),
                                   c.blocked_ns().end());
  };
  obs::MetricsRegistry metrics;
  Core core(metrics, "", 3, DeliveryMode::kGapSkip);
  EXPECT_EQ(blocked(core), (std::vector<DurationNs>{0, 0, 0}));
  core.charge_blocked(0, 100);
  core.charge_blocked(2, 30);
  core.charge_blocked(0, 50);
  // Liveness changes keep what a channel was charged: the control loop
  // differences cumulative samples, so a reset would read as a negative
  // rate.
  core.quarantine(0);
  core.set_up(2, false);
  core.set_up(2, true);
  core.charge_blocked(2, 5);
  EXPECT_EQ(blocked(core), (std::vector<DurationNs>{150, 0, 35}));

  EXPECT_EQ(
      blocked(Core(metrics, "fresh.", 2, DeliveryMode::kAtLeastOnce, 64)),
      (std::vector<DurationNs>{0, 0}));
}

// --- 2. exhaustive model check ---------------------------------------

/// What a model run is built from.
struct Params {
  int channels;
  std::uint64_t sequences;
  DeliveryMode mode;
  int crashes;
  int sheds;
};

/// The splitter core and the merger's release core, connected by one
/// in-flight FIFO per channel and a single-slot delayed ack link. The
/// cores publish their counts into the model's own registry, so a model
/// is not copied: every explored state is replayed from a fresh one.
struct Model {
  obs::MetricsRegistry metrics;  // declared before the cores
  Core send;
  delivery::ReleaseCore<std::uint64_t> release;
  std::vector<std::deque<std::uint64_t>> wire;
  std::optional<std::uint64_t> ack_in_flight;
  std::vector<int> emitted_count;  // per sequence, at the sink
  std::uint64_t emitted = 0;
  std::int64_t last_emitted = -1;
  bool order_ok = true;
  int crashes_left;
  int sheds_left;
  std::uint64_t sequences;

  explicit Model(const Params& p)
      : send(metrics, "splitter.", p.channels, p.mode,
             /*replay_buffer_bytes=*/2),
        release(metrics, p.channels, p.mode),
        wire(static_cast<std::size_t>(p.channels)),
        emitted_count(static_cast<std::size_t>(p.sequences), 0),
        crashes_left(p.crashes),
        sheds_left(p.sheds),
        sequences(p.sequences) {}

  void drain() {
    release.release([&](int, std::uint64_t seq) {
      order_ok = order_ok && static_cast<std::int64_t>(seq) > last_emitted;
      last_emitted = static_cast<std::int64_t>(seq);
      ++emitted_count[static_cast<std::size_t>(seq)];
      ++emitted;
      return true;
    });
  }

  void declare_lost(std::uint64_t first, std::uint64_t count) {
    release.note_lost(first, count, 0);
    drain();
  }
};

struct ModelStats {
  std::uint64_t terminals = 0;
  std::uint64_t with_retransmits = 0;
  std::uint64_t with_gaps = 0;
};

/// Checks the end-state identities of a quiescent run.
void check_terminal(const Model& m, ModelStats& stats) {
  ++stats.terminals;
  if (m.send.retransmits() > 0) ++stats.with_retransmits;
  if (m.release.gaps() > 0) ++stats.with_gaps;
  ASSERT_TRUE(m.order_ok);
  ASSERT_EQ(m.send.next_seq(), m.sequences);
  for (std::uint64_t s = 0; s < m.sequences; ++s) {
    ASSERT_LE(m.emitted_count[static_cast<std::size_t>(s)], 1) << s;
  }
  if (m.send.at_least_once()) {
    // Exactly once: every sequence not shed reaches the sink, and every
    // shed one is a gap.
    ASSERT_EQ(m.emitted, m.send.total_sent());
    ASSERT_EQ(m.release.gaps(), m.send.shed());
    ASSERT_EQ(m.send.unacked(), 0u);
    ASSERT_EQ(m.send.replay_bytes(), 0u);
    ASSERT_EQ(m.send.acked(), m.sequences);
  } else {
    ASSERT_EQ(m.emitted + m.release.gaps(),
              m.send.total_sent() + m.send.shed());
  }
}

/// One transition of the model. Ordered by (kind, channel) for the
/// partial-order reduction below.
enum class Kind { kSend, kShed, kDeliver, kAckGen, kAckDeliver, kCrash,
                  kRecover };
struct Action {
  Kind kind;
  int ch = 0;  // kShed: the count shed
  int pick = 0;  // kSend: the pick that routed to `ch`
  bool operator<(const Action& o) const {
    return kind != o.kind ? kind < o.kind : ch < o.ch;
  }
};

/// Applies an action enabled in `x`.
void apply(Model& x, const Action& a) {
  const auto wire = [&]() -> std::deque<std::uint64_t>& {
    return x.wire[static_cast<std::size_t>(a.ch)];
  };
  switch (a.kind) {
    case Kind::kSend: {
      x.send.route(a.pick);
      const auto* replay = x.send.next_replay();
      const std::uint64_t seq =
          replay != nullptr ? replay->seq : x.send.next_seq();
      x.send.commit(a.ch, seq, 1, seq, replay != nullptr);
      wire().push_back(seq);
      break;
    }
    case Kind::kShed: {
      --x.sheds_left;
      const Core::Range dropped =
          x.send.shed(static_cast<std::uint64_t>(a.ch));
      x.declare_lost(dropped.first, dropped.count);
      break;
    }
    case Kind::kDeliver: {
      const std::uint64_t seq = wire().front();
      wire().pop_front();
      x.release.offer(a.ch, seq);
      x.drain();
      break;
    }
    case Kind::kAckGen:
      x.ack_in_flight = x.release.take_ack();
      break;
    case Kind::kAckDeliver:
      x.send.on_ack(*x.ack_in_flight);
      x.ack_in_flight.reset();
      break;
    case Kind::kCrash: {
      // The channel's in-flight tuples die with its worker. Gap-skip
      // declares them lost; at-least-once replays the unacked suffix.
      --x.crashes_left;
      const std::deque<std::uint64_t> lost = std::exchange(wire(), {});
      x.send.quarantine(a.ch);
      if (!x.send.at_least_once()) {
        for (const std::uint64_t seq : lost) x.declare_lost(seq, 1);
      }
      break;
    }
    case Kind::kRecover:  // a replacement worker on a fresh connection
      x.send.set_up(a.ch, true);
      break;
  }
}

/// Actions that commute and cannot disable each other: one touches only
/// the splitter side (core + wire tail), the other only the merger side
/// (wire head + release core) or an unrelated part of the splitter.
/// Everything involving a crash or a shed is treated as dependent.
bool independent(const Action& a, const Action& b) {
  const auto pair = [&](Kind x, Kind y) {
    return (a.kind == x && b.kind == y) || (a.kind == y && b.kind == x);
  };
  if (a.kind == Kind::kDeliver && b.kind == Kind::kDeliver) {
    return a.ch != b.ch;
  }
  if (a.kind == Kind::kRecover && b.kind == Kind::kRecover) {
    return a.ch != b.ch;
  }
  return pair(Kind::kDeliver, Kind::kSend) ||
         pair(Kind::kDeliver, Kind::kRecover) ||
         pair(Kind::kDeliver, Kind::kAckDeliver) ||
         pair(Kind::kAckGen, Kind::kSend) ||
         pair(Kind::kAckGen, Kind::kRecover) ||
         pair(Kind::kAckDeliver, Kind::kRecover);
}

/// Depth-first over every interleaving, up to reordering adjacent
/// independent actions: after the last action of `path`, an independent
/// action ordered before it is skipped, because the swapped word is
/// explored from the parent and reaches the same state. Every trace keeps
/// its lexicographically least word, so every reachable terminal state is
/// still checked. `m` is the state `path` reaches; the last successor
/// takes it over, and every other one is replayed from a fresh model.
void explore(const Params& p, std::vector<Action>& path, Model& m,
             ModelStats& stats) {
  if (::testing::Test::HasFatalFailure()) return;  // report the first one
  bool enabled = false;
  std::vector<Action> next;
  const auto step = [&](Action a) {
    enabled = true;
    if (path.empty() || !(a < path.back() && independent(a, path.back()))) {
      next.push_back(a);
    }
  };
  const int n = m.send.channels();

  // Send: a pending replay outranks a fresh sequence. Every pick is
  // explored; picks that route to the same channel are one action. A
  // full replay buffer leaves the pick blocked (no transition) — the
  // splitter waits for an ack or re-picks. The failovers these routes
  // count in `m` are read nowhere.
  const bool replay = m.send.next_replay() != nullptr;
  if (replay || m.send.next_seq() < m.sequences) {
    std::vector<char> tried(static_cast<std::size_t>(n), 0);
    for (int pick = 0; pick < n; ++pick) {
      const int j = m.send.route(pick);
      if (j < 0 || tried[static_cast<std::size_t>(j)]) continue;
      tried[static_cast<std::size_t>(j)] = 1;
      if (m.send.admits(j, 1)) step({Kind::kSend, j, pick});
    }
  }
  // Shed: the next one or two fresh sequences, announced as lost.
  if (!replay && m.sheds_left > 0) {
    for (std::uint64_t count = 1;
         count <= 2 && m.send.next_seq() + count <= m.sequences; ++count) {
      step({Kind::kShed, static_cast<int>(count)});
    }
  }
  // Deliver the oldest in-flight tuple of a channel to the merger.
  for (int j = 0; j < n; ++j) {
    if (!m.wire[static_cast<std::size_t>(j)].empty()) {
      step({Kind::kDeliver, j});
    }
  }
  // Ack: the merger sends its cursor, which arrives later.
  if (!m.ack_in_flight && m.release.unacked() > 0 && m.send.at_least_once()) {
    step({Kind::kAckGen});
  }
  if (m.ack_in_flight) step({Kind::kAckDeliver});
  for (int j = 0; j < n && m.crashes_left > 0; ++j) {
    if (m.send.up(j)) step({Kind::kCrash, j});
  }
  for (int j = 0; j < n; ++j) {
    if (!m.send.up(j)) step({Kind::kRecover, j});
  }
  if (!enabled) check_terminal(m, stats);

  for (std::size_t i = 0; i < next.size(); ++i) {
    path.push_back(next[i]);
    if (i + 1 == next.size()) {
      apply(m, next[i]);
      explore(p, path, m, stats);
    } else {
      Model child(p);
      for (const Action& a : path) apply(child, a);
      explore(p, path, child, stats);
    }
    path.pop_back();
  }
}

ModelStats check(int channels, std::uint64_t seqs, DeliveryMode mode,
                 int crashes, int sheds) {
  const Params p{channels, seqs, mode, crashes, sheds};
  ModelStats stats;
  std::vector<Action> path;
  Model root(p);
  explore(p, path, root, stats);
  return stats;
}

// Counts are terminal states reached (words explored to quiescence), so
// a change in what the model explores shows up here first. Replay cap: two
// one-byte tuples per channel.

TEST(SendCoreModel, AtLeastOnceIsExactlyOnceInOrderAcrossCrashAndShed) {
  // One crash (and any recoveries), at most one shed of one or two
  // sequences, anywhere in the run.
  const ModelStats two = check(2, 3, DeliveryMode::kAtLeastOnce, 1, 1);
  EXPECT_EQ(two.terminals, 63768u);
  EXPECT_GT(two.with_retransmits, 0u);
  EXPECT_GT(two.with_gaps, 0u);  // from sheds: gaps == shed is checked
  const ModelStats three = check(3, 2, DeliveryMode::kAtLeastOnce, 1, 1);
  EXPECT_EQ(three.terminals, 7851u);
  EXPECT_GT(three.with_retransmits, 0u);
}

TEST(SendCoreModel, GapSkipConservesSequenceSpace) {
  const ModelStats two = check(2, 5, DeliveryMode::kGapSkip, 1, 1);
  EXPECT_EQ(two.terminals, 27068u);
  EXPECT_GT(two.with_gaps, 0u);
  EXPECT_EQ(two.with_retransmits, 0u);
  const ModelStats three = check(3, 3, DeliveryMode::kGapSkip, 1, 1);
  EXPECT_EQ(three.terminals, 4551u);
  EXPECT_GT(three.with_gaps, 0u);
}

}  // namespace
}  // namespace slb
