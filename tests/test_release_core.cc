// The ordered-release core shared by both mergers (DESIGN.md §10).
//
// Four layers of evidence:
//   1. unit cases for each piece the core owns (cursor, replay pool,
//      stale classification, lost ranges, gap wait, capacity, stream
//      floors and the unreachable skip, ack cursor);
//   2. an exhaustive model check over every arrival interleaving of small
//      regions (≤3 connections × ≤6 sequences) with optional losses, late
//      arrivals, silent deaths, stream ends and at-least-once replays;
//   3. a differential oracle: seeded random operation sequences over up
//      to 130 connections drive the core and the plain-scan reference
//      (linear_release_core.h) and require identical observable behaviour
//      after every step;
//   4. parity: one scripted arrival sequence fed to sim::Merger and to
//      rt::MergerPe (over socketpairs carrying encoded frames) must give
//      identical counters — the sim told exactly what died, the runtime
//      inferring it from ended streams — plus the runtime's idle-stream
//      cases.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <ostream>
#include <thread>
#include <vector>

#include "delivery/release_core.h"
#include "linear_release_core.h"
#include "obs/metrics.h"
#include "run_until_idle.h"
#include "runtime/merger_pe.h"
#include "sim/merger.h"
#include "transport/framing.h"
#include "transport/socket.h"
#include "util/rng.h"
#include "util/time.h"

namespace slb {
namespace {

using delivery::DeliveryMode;
using Core = delivery::ReleaseCore<std::uint64_t>;
using Seqs = std::vector<std::uint64_t>;

/// Releases into `out`, recording the emitted sequence numbers.
void release(Core& core, Seqs& out) {
  core.release([&](int, std::uint64_t seq) {
    out.push_back(seq);
    return true;
  });
}

// --- 1. unit cases ----------------------------------------------------

TEST(ReleaseCore, CursorReleasesInSequenceOrderAcrossConnections) {
  obs::MetricsRegistry metrics;
  Core core(metrics, 2, DeliveryMode::kGapSkip);
  Seqs out;
  core.offer(1, 1);
  core.offer(1, 3);
  release(core, out);
  EXPECT_TRUE(out.empty());  // gated on 0
  EXPECT_EQ(core.queued(), 2u);
  core.offer(0, 0);
  core.offer(0, 2);
  release(core, out);
  EXPECT_EQ(out, (Seqs{0, 1, 2, 3}));
  EXPECT_EQ(core.expected(), 4u);
  EXPECT_EQ(core.queued(), 0u);
}

TEST(ReleaseCore, StaleArrivalIsDupUnderAtLeastOnceAndLateOtherwise) {
  for (const DeliveryMode mode :
       {DeliveryMode::kAtLeastOnce, DeliveryMode::kGapSkip}) {
    obs::MetricsRegistry metrics;
    Core core(metrics, 2, mode);
    Seqs out;
    core.offer(0, 0);
    release(core, out);
    EXPECT_EQ(core.offer(1, 0), Core::Offer::kStale);
    const bool alo = mode == DeliveryMode::kAtLeastOnce;
    EXPECT_EQ(core.dup_discards(), alo ? 1u : 0u);
    EXPECT_EQ(core.late_discards(), alo ? 0u : 1u);
    EXPECT_EQ(core.queued(), 0u);
  }
}

TEST(ReleaseCore, PublishesItsCountsAsTheMergerCounters) {
  // The core registers the merger's gap and discard counters and writes
  // them where they change; its accessors read the same handles.
  for (const DeliveryMode mode :
       {DeliveryMode::kAtLeastOnce, DeliveryMode::kGapSkip}) {
    obs::MetricsRegistry metrics;
    Core core(metrics, 1, mode);
    EXPECT_EQ(metrics.size(), 3u);
    Seqs out;
    core.note_lost(0, 2, 0);
    release(core, out);
    core.offer(0, 1);  // stale: a replay echo, or late past its gap
    const bool alo = mode == DeliveryMode::kAtLeastOnce;
    const obs::MetricsSnapshot snap = metrics.snapshot();
    EXPECT_EQ(snap.counter("merger.gaps"), 2u);
    EXPECT_EQ(snap.counter("merger.dup_discards"), alo ? 1u : 0u);
    EXPECT_EQ(snap.counter("merger.late_discards"), alo ? 0u : 1u);
    EXPECT_EQ(core.gaps(), 2u);
    EXPECT_EQ(core.dup_discards(), snap.counter("merger.dup_discards"));
    EXPECT_EQ(core.late_discards(), snap.counter("merger.late_discards"));
  }
}

TEST(ReleaseCore, ReplayBehindNewerSequencesIsPooledAndReleased) {
  obs::MetricsRegistry metrics;
  Core core(metrics, 2, DeliveryMode::kAtLeastOnce);
  Seqs out;
  core.offer(0, 1);
  core.offer(1, 3);
  EXPECT_EQ(core.offer(1, 0), Core::Offer::kAccepted);  // behind 3: pooled
  EXPECT_EQ(core.pooled(), 1u);
  EXPECT_EQ(core.offer(1, 0), Core::Offer::kAccepted);  // pool collision
  EXPECT_EQ(core.dup_discards(), 1u);
  release(core, out);
  EXPECT_EQ(out, (Seqs{0, 1}));
  EXPECT_EQ(core.pooled(), 0u);
  core.offer(0, 2);
  release(core, out);
  EXPECT_EQ(out, (Seqs{0, 1, 2, 3}));
}

TEST(ReleaseCore, GapSkipQueuesOutOfOrderArrivalsInsteadOfPooling) {
  obs::MetricsRegistry metrics;
  Core core(metrics, 1, DeliveryMode::kGapSkip);
  core.offer(0, 3);
  core.offer(0, 1);
  EXPECT_EQ(core.pooled(), 0u);
  EXPECT_EQ(core.queue_size(0), 2u);
}

TEST(ReleaseCore, PooledEntryOvertakenByTheCursorIsDiscarded) {
  obs::MetricsRegistry metrics;
  Core core(metrics, 2, DeliveryMode::kAtLeastOnce);
  Seqs out;
  core.offer(0, 5);
  core.offer(0, 1);  // pooled
  core.offer(1, 0);
  core.offer(1, 1);  // same sequence on a second connection
  release(core, out);
  // Connection 1's queued copy of 1 is released right behind 0; the
  // pooled copy is then below the cursor and dropped as a duplicate.
  EXPECT_EQ(out, (Seqs{0, 1}));
  EXPECT_EQ(core.dup_discards(), 1u);
  EXPECT_EQ(core.queued(), 1u);
}

TEST(ReleaseCore, LostRangesAreSkippedAsGaps) {
  obs::MetricsRegistry metrics;
  Core core(metrics, 1, DeliveryMode::kGapSkip);
  Seqs out;
  core.note_lost(2, 3, 0);  // [2, 5)
  core.note_lost(2, 1, 0);  // narrower redeclaration: widest wins
  core.note_lost(3, 4, 0);  // overlapping: [3, 7)
  EXPECT_EQ(core.lost_pending(), 5u);
  core.offer(0, 0);
  core.offer(0, 1);
  core.offer(0, 7);
  release(core, out);
  EXPECT_EQ(out, (Seqs{0, 1, 7}));
  EXPECT_EQ(core.gaps(), 5u);  // 2..6, overlap counted once
  EXPECT_EQ(core.lost_pending(), 0u);
  core.note_lost(5, 2, 0);  // entirely below the cursor: ignored
  EXPECT_EQ(core.lost_pending(), 0u);
  core.note_lost(8, 0, 0);  // empty range: ignored
  EXPECT_EQ(core.lost_pending(), 0u);
}

TEST(ReleaseCore, GapWaitReportsCountAndDeclarationTime) {
  obs::MetricsRegistry metrics;
  Core core(metrics, 1, DeliveryMode::kGapSkip);
  core.note_lost(1, 2, 100);
  core.note_lost(1, 1, 150);  // later redeclaration keeps the first time
  core.offer(0, 3);
  std::vector<std::pair<std::uint64_t, TimeNs>> waits;
  Seqs out;
  const auto emit = [&](int, std::uint64_t seq) {
    out.push_back(seq);
    return true;
  };
  const auto on_gap = [&](std::uint64_t count, TimeNs declared_at) {
    waits.emplace_back(count, declared_at);
  };
  core.release(emit, on_gap);
  EXPECT_TRUE(out.empty());  // 0 has not arrived; the gap is not reached
  EXPECT_TRUE(waits.empty());
  // The only stream has moved past 0, so 0 never arrives.
  EXPECT_EQ(core.skip_unreachable(), 3u);
  EXPECT_EQ(core.expected(), 3u);  // jumped over 0..2, range dropped
  EXPECT_EQ(core.gaps(), 3u);
  core.release(emit, on_gap);
  EXPECT_TRUE(waits.empty());  // the lost range lay below the jump
  EXPECT_EQ(out, (Seqs{3}));

  obs::MetricsRegistry fresh_metrics;
  Core fresh(fresh_metrics, 1, DeliveryMode::kGapSkip);
  fresh.note_lost(0, 2, 100);
  fresh.offer(0, 2);
  fresh.release(emit, on_gap);
  ASSERT_EQ(waits.size(), 1u);
  EXPECT_EQ(waits[0].first, 2u);
  EXPECT_EQ(waits[0].second, 100);
}

TEST(ReleaseCore, CapacityBoundsEachQueue) {
  obs::MetricsRegistry metrics;
  Core core(metrics, 2, DeliveryMode::kGapSkip, 2);
  Seqs out;
  EXPECT_EQ(core.offer(1, 1), Core::Offer::kAccepted);
  EXPECT_EQ(core.offer(1, 2), Core::Offer::kAccepted);
  EXPECT_EQ(core.offer(1, 3), Core::Offer::kFull);
  EXPECT_EQ(core.offer(0, 0), Core::Offer::kAccepted);
  release(core, out);
  EXPECT_EQ(out, (Seqs{0, 1, 2}));
  std::vector<int> freed;
  core.take_freed([&](int j) { freed.push_back(j); });
  EXPECT_EQ(freed, (std::vector<int>{0, 1}));
  core.take_freed([&](int j) { freed.push_back(j); });
  EXPECT_EQ(freed.size(), 2u);  // marks cleared
  EXPECT_EQ(core.offer(1, 3), Core::Offer::kAccepted);
}

TEST(ReleaseCore, RefusedEmitStopsAndResumesWithTheSameItem) {
  obs::MetricsRegistry metrics;
  Core core(metrics, 1, DeliveryMode::kGapSkip);
  core.offer(0, 0);
  core.offer(0, 1);
  Seqs out;
  bool open = false;
  const auto emit = [&](int, std::uint64_t seq) {
    if (!open) return false;
    out.push_back(seq);
    open = false;  // take one, then refuse again
    return true;
  };
  core.release(emit);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(core.expected(), 0u);
  open = true;
  core.release(emit);
  EXPECT_EQ(out, (Seqs{0}));
  open = true;
  core.release(emit);
  EXPECT_EQ(out, (Seqs{0, 1}));
}

TEST(ReleaseCore, SkipUnreachableWaitsForEveryOpenStreamThenFlushes) {
  obs::MetricsRegistry metrics;
  Core core(metrics, 3, DeliveryMode::kGapSkip);
  Seqs out;
  EXPECT_EQ(core.skip_unreachable(), 0u);  // every stream may carry 0
  core.offer(0, 4);
  core.offer(1, 2);
  core.offer(2, 7);
  core.note_lost(3, 1, 0);
  release(core, out);
  EXPECT_TRUE(out.empty());
  // Floors 5, 3, 8: no stream can still carry 0 or 1.
  EXPECT_EQ(core.skip_unreachable(), 2u);
  release(core, out);
  EXPECT_EQ(out, (Seqs{2, 4}));  // 3 skipped as a declared gap
  // Streams 0 and 1 may still carry 5 and 6.
  EXPECT_EQ(core.skip_unreachable(), 0u);
  core.close(1);
  EXPECT_EQ(core.skip_unreachable(), 0u);
  core.close(0);
  EXPECT_EQ(core.skip_unreachable(), 2u);  // 5, 6
  release(core, out);
  EXPECT_EQ(out, (Seqs{2, 4, 7}));
  EXPECT_EQ(core.gaps(), 5u);
  core.close(2);
  // Nothing queued and every stream ended: nothing left to reach.
  EXPECT_EQ(core.skip_unreachable(), 0u);
  EXPECT_EQ(core.expected(), 8u);
}

TEST(ReleaseCore, IdleOpenStreamIsNeverSkipped) {
  // The hazard of a gap timer: after an idle stretch, the first
  // out-of-order arrival made the merger skip a healthy sequence. An open
  // stream that has not moved past the cursor may still carry it, however
  // long it stays idle.
  obs::MetricsRegistry metrics;
  Core core(metrics, 2, DeliveryMode::kGapSkip);
  Seqs out;
  core.offer(0, 0);
  release(core, out);
  core.offer(1, 2);  // e + 1 arrives first
  release(core, out);
  EXPECT_EQ(core.skip_unreachable(), 0u);
  core.offer(0, 1);  // then e
  release(core, out);
  EXPECT_EQ(out, (Seqs{0, 1, 2}));
  EXPECT_EQ(core.gaps(), 0u);
  EXPECT_EQ(core.late_discards(), 0u);
}

TEST(ReleaseCore, SlowOpenStreamHoldsTheCursorUntilItMovesPast) {
  // Stream 2 dies holding 0 and 3; stream 0 is fast, stream 1 slow.
  obs::MetricsRegistry metrics;
  Core core(metrics, 3, DeliveryMode::kGapSkip);
  Seqs out;
  core.offer(0, 1);
  core.offer(0, 4);
  core.offer(0, 6);
  core.close(2);
  EXPECT_EQ(core.skip_unreachable(), 0u);  // stream 1 may carry 0
  core.offer(1, 2);
  EXPECT_EQ(core.skip_unreachable(), 1u);  // 0
  release(core, out);
  EXPECT_EQ(out, (Seqs{1, 2}));
  EXPECT_EQ(core.skip_unreachable(), 0u);  // stream 1 may carry 3
  core.raise_floor(1, 5);  // a watermark: stream 1 is past 4
  EXPECT_EQ(core.skip_unreachable(), 1u);  // 3
  release(core, out);
  EXPECT_EQ(out, (Seqs{1, 2, 4}));
  EXPECT_EQ(core.skip_unreachable(), 0u);  // stream 1 may carry 5
  core.offer(1, 5);
  release(core, out);
  EXPECT_EQ(out, (Seqs{1, 2, 4, 5, 6}));
  EXPECT_EQ(core.gaps(), 2u);
  EXPECT_EQ(core.late_discards(), 0u);
}

TEST(ReleaseCore, ReopenedStreamHoldsTheCursorUntilItsWatermark) {
  obs::MetricsRegistry metrics;
  Core core(metrics, 2, DeliveryMode::kGapSkip);
  Seqs out;
  core.offer(0, 0);
  core.offer(0, 3);
  release(core, out);
  core.close(1);
  core.reopen(1);  // a re-admitted worker: may carry anything from 1 up
  core.raise_floor(1, 1);  // floors only rise
  EXPECT_EQ(core.skip_unreachable(), 0u);
  core.raise_floor(1, 2);  // its stream starts at 2
  EXPECT_EQ(core.skip_unreachable(), 1u);  // 1 died with the old stream
  core.offer(1, 2);
  release(core, out);
  EXPECT_EQ(out, (Seqs{0, 2, 3}));
  EXPECT_EQ(core.gaps(), 1u);
}

TEST(ReleaseCore, AtLeastOnceSkipsOnlyOnceEveryStreamHasEnded) {
  // Replays may carry any unacked sequence on any stream, so neither
  // arrivals nor watermarks move a floor: only stream ends do.
  obs::MetricsRegistry metrics;
  Core core(metrics, 2, DeliveryMode::kAtLeastOnce);
  Seqs out;
  core.offer(0, 1);
  core.raise_floor(0, 10);
  core.close(1);
  EXPECT_EQ(core.skip_unreachable(), 0u);
  core.close(0);
  EXPECT_EQ(core.skip_unreachable(), 1u);
  release(core, out);
  EXPECT_EQ(out, (Seqs{1}));
}

TEST(ReleaseCore, AckCursorTracksUnacknowledgedReleases) {
  obs::MetricsRegistry metrics;
  Core core(metrics, 1, DeliveryMode::kAtLeastOnce);
  Seqs out;
  EXPECT_EQ(core.unacked(), 0u);
  core.offer(0, 0);
  core.offer(0, 1);
  release(core, out);
  EXPECT_EQ(core.unacked(), 2u);
  EXPECT_EQ(core.take_ack(), 2u);
  EXPECT_EQ(core.unacked(), 0u);
  core.offer(0, 2);
  release(core, out);
  EXPECT_EQ(core.unacked(), 1u);
  EXPECT_EQ(core.take_ack(), 3u);
}

TEST(ReleaseCore, UngatedHeadAndPopServeParallelSinks) {
  obs::MetricsRegistry metrics;
  delivery::ReleaseCore<sim::Tuple> core(metrics, 2, DeliveryMode::kGapSkip);
  core.offer(1, sim::Tuple{5, 0});
  ASSERT_NE(core.head(1), nullptr);
  EXPECT_EQ(core.head(1)->seq, 5u);
  EXPECT_EQ(core.head(0), nullptr);
  core.pop(1);
  EXPECT_EQ(core.queued(), 0u);
  std::vector<int> freed;
  core.take_freed([&](int j) { freed.push_back(j); });
  EXPECT_EQ(freed, (std::vector<int>{1}));
}

// --- 2. exhaustive model check ---------------------------------------

struct Event {
  enum Kind { kArrive, kLost, kEnd } kind;
  std::uint64_t seq = 0;
  int conn = 0;
};
using Stream = std::vector<Event>;

/// Calls visit(order) for every interleaving of `streams` that keeps each
/// stream's own order (a connection delivers in send order; a singleton
/// stream floats freely).
void interleave(const std::vector<Stream>& streams,
                std::vector<std::size_t>& pos, std::vector<Event>& order,
                const std::function<void(const std::vector<Event>&)>& visit) {
  bool leaf = true;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    if (pos[i] == streams[i].size()) continue;
    leaf = false;
    order.push_back(streams[i][pos[i]++]);
    interleave(streams, pos, order, visit);
    --pos[i];
    order.pop_back();
  }
  if (leaf) visit(order);
}

std::uint64_t for_each_interleaving(
    const std::vector<Stream>& streams,
    const std::function<void(const std::vector<Event>&)>& visit) {
  std::vector<std::size_t> pos(streams.size(), 0);
  std::vector<Event> order;
  std::uint64_t leaves = 0;
  interleave(streams, pos, order, [&](const std::vector<Event>& o) {
    ++leaves;
    visit(o);
  });
  return leaves;
}

/// Calls fn(choice) for every vector in {0..base-1}^n.
void for_each_choice(int n, int base,
                     const std::function<void(const std::vector<int>&)>& fn) {
  std::vector<int> choice(static_cast<std::size_t>(n), 0);
  for (;;) {
    fn(choice);
    int i = 0;
    while (i < n && ++choice[static_cast<std::size_t>(i)] == base) {
      choice[static_cast<std::size_t>(i)] = 0;
      ++i;
    }
    if (i == n) return;
  }
}

struct Playback {
  Seqs emitted;
  std::uint64_t arrivals = 0;
  std::size_t queued_before_flush = 0;
};

/// Plays one arrival order through a fresh core, releasing and skipping
/// what is unreachable after every event as the runtime merger does, then
/// ends every stream (the end of input) and does the same once more.
Playback play(Core& core, int conns, const std::vector<Event>& order) {
  Playback run;
  const auto release = [&] {
    const auto emit = [&](int, std::uint64_t seq) {
      run.emitted.push_back(seq);
      return true;
    };
    core.release(emit);
    while (core.skip_unreachable() > 0) core.release(emit);
  };
  for (const Event& e : order) {
    switch (e.kind) {
      case Event::kArrive:
        ++run.arrivals;
        core.offer(e.conn, e.seq);
        break;
      case Event::kLost:
        core.note_lost(e.seq, 1, 0);
        break;
      case Event::kEnd:
        core.close(e.conn);
        break;
    }
    release();
  }
  run.queued_before_flush = core.queued();
  for (int j = 0; j < conns; ++j) core.close(j);
  release();
  return run;
}

bool strictly_increasing(const Seqs& s) {
  for (std::size_t i = 1; i < s.size(); ++i) {
    if (s[i] <= s[i - 1]) return false;
  }
  return true;
}

/// GapSkip over FIFO streams: every sequence is sent on its assigned
/// connection and then, by its fate, arrives (0), dies silently with its
/// worker (1), is declared lost and never arrives (2), or is declared
/// lost and arrives anyway (3). Every stream ends after its last arrival;
/// declarations float freely. Invariants: strict order; nothing but a
/// fate-3 arrival is ever discarded, so a stream that is still open is
/// never skipped past; every arrival is emitted or counted late; and the
/// cursor ends at the first silent death that no later arrival passes
/// (nothing can reveal it), with emitted + gaps equal to it.
std::uint64_t check_gap_skip(int conns, int seqs, int fates) {
  std::uint64_t leaves = 0;
  for_each_choice(seqs, conns, [&](const std::vector<int>& assign) {
    for_each_choice(seqs, fates, [&](const std::vector<int>& fate) {
      std::vector<Stream> streams(static_cast<std::size_t>(conns));
      std::uint64_t end = static_cast<std::uint64_t>(seqs);
      std::uint64_t late_fates = 0;
      for (int s = seqs - 1; s >= 0; --s) {
        const int f = fate[static_cast<std::size_t>(s)];
        if (f == 0 || f == 3) break;
        if (f == 1) end = static_cast<std::uint64_t>(s);
      }
      std::uint64_t pending = 0;
      for (int s = 0; s < seqs; ++s) {
        const auto su = static_cast<std::size_t>(s);
        const auto seq = static_cast<std::uint64_t>(s);
        if (fate[su] == 0 || fate[su] == 3) {
          streams[static_cast<std::size_t>(assign[su])].push_back(
              Event{Event::kArrive, seq, assign[su]});
        }
        if (fate[su] >= 2) streams.push_back({Event{Event::kLost, seq, 0}});
        if (fate[su] == 3) ++late_fates;
        if (fate[su] == 2 && seq >= end) ++pending;
      }
      for (int j = 0; j < conns; ++j) {
        streams[static_cast<std::size_t>(j)].push_back(
            Event{Event::kEnd, 0, j});
      }
      leaves += for_each_interleaving(streams, [&](const auto& order) {
        if (::testing::Test::HasFatalFailure()) return;
        obs::MetricsRegistry metrics;
        Core core(metrics, conns, DeliveryMode::kGapSkip);
        const Playback run = play(core, conns, order);
        ASSERT_TRUE(strictly_increasing(run.emitted));
        ASSERT_EQ(run.queued_before_flush, 0u);
        ASSERT_EQ(core.expected(), end);
        ASSERT_EQ(run.emitted.size() + core.gaps(), end);
        ASSERT_EQ(run.emitted.size() + core.late_discards(), run.arrivals);
        ASSERT_LE(core.late_discards(), late_fates);
        ASSERT_EQ(core.dup_discards(), 0u);
        ASSERT_EQ(core.lost_pending(), pending);
        if (fates == 1) {
          ASSERT_EQ(core.gaps(), 0u);
        }
      });
    });
  });
  return leaves;
}

TEST(ReleaseCoreModel, EveryInterleavingOfThreeConnectionsSixSequences) {
  EXPECT_EQ(check_gap_skip(3, 6, /*fates=*/1), 765288u);
}

TEST(ReleaseCoreModel, GapSkipWithLossesLateArrivalsAndStreamEnds) {
  // FIFO fates only (arrive / die silently / declared lost): no arrival
  // is ever discarded.
  EXPECT_EQ(check_gap_skip(3, 3, /*fates=*/3), 87948u);
  // Plus declared-lost tuples that arrive anyway.
  EXPECT_EQ(check_gap_skip(2, 3, /*fates=*/4), 87182u);
}

TEST(ReleaseCoreModel, AtLeastOnceWithReplaysIsExactlyOnceInOrder) {
  // Per sequence: the original arrives on its connection, optionally
  // with a replay on any connection — or only the replay arrives (the
  // original died with a worker). Replays land at any point.
  constexpr int kConns = 3;
  constexpr int kSeqs = 3;
  std::uint64_t leaves = 0;
  for_each_choice(kSeqs, kConns, [&](const std::vector<int>& assign) {
    for_each_choice(kSeqs, 1 + 2 * kConns, [&](const std::vector<int>& fate) {
      std::vector<Stream> streams(kConns);
      std::uint64_t copies = 0;
      for (int s = 0; s < kSeqs; ++s) {
        const auto su = static_cast<std::size_t>(s);
        const auto seq = static_cast<std::uint64_t>(s);
        const int f = fate[su];
        if (f <= kConns) {
          streams[static_cast<std::size_t>(assign[su])].push_back(
              Event{Event::kArrive, seq, assign[su]});
          ++copies;
        }
        if (f > 0) {
          const int replay_conn = (f - 1) % kConns;
          streams.push_back({Event{Event::kArrive, seq, replay_conn}});
          ++copies;
        }
      }
      leaves += for_each_interleaving(streams, [&](const auto& order) {
        if (::testing::Test::HasFatalFailure()) return;
        obs::MetricsRegistry metrics;
        Core core(metrics, kConns, DeliveryMode::kAtLeastOnce);
        const Playback run = play(core, kConns, order);
        ASSERT_EQ(run.queued_before_flush, 0u);  // no skip ever needed
        ASSERT_EQ(run.emitted.size(), static_cast<std::size_t>(kSeqs));
        ASSERT_TRUE(strictly_increasing(run.emitted));
        ASSERT_EQ(core.gaps(), 0u);
        ASSERT_EQ(core.late_discards(), 0u);
        ASSERT_EQ(core.dup_discards(), copies - kSeqs);
        ASSERT_EQ(core.pooled(), 0u);
      });
    });
  });
  EXPECT_EQ(leaves, 665292u);
}

// --- 3. differential oracle -----------------------------------------

using Ref = testref::LinearReleaseCore;

/// One callback a release made: an emit (seq, from, queued() inside the
/// emit) or a gap skip (count, declared_at).
struct Call {
  enum Kind { kEmit, kGap } kind;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
  bool operator==(const Call&) const = default;
};

void PrintTo(const Call& call, std::ostream* os) {
  *os << (call.kind == Call::kEmit ? "emit{" : "gap{") << call.a << ", "
      << call.b << ", " << call.c << "}";
}

/// Whether the i-th emit of a release refuses: a pure function of the
/// step's salt, so both cores see the same downstream.
bool refuses(std::uint64_t salt, std::uint64_t i, double p) {
  std::uint64_t state = salt * 0x100000001b3ULL + i;
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53 < p;
}

template <typename C>
std::vector<Call> traced_release(C& core, std::uint64_t salt,
                                 double refuse_p) {
  std::vector<Call> calls;
  std::uint64_t i = 0;
  core.release(
      [&](int from, std::uint64_t seq) {
        calls.push_back({Call::kEmit, seq, static_cast<std::uint64_t>(from),
                         core.queued()});
        return !refuses(salt, i++, refuse_p);
      },
      [&](std::uint64_t count, TimeNs declared_at) {
        calls.push_back(
            {Call::kGap, count, static_cast<std::uint64_t>(declared_at), 0});
      });
  return calls;
}

template <typename C>
std::vector<int> freed(C& core) {
  std::vector<int> out;
  core.take_freed([&](int j) { out.push_back(j); });
  return out;
}

/// One seeded operation sequence through both cores. Connections receive
/// their own sends in order; stray arrivals near the cursor add stale
/// copies, at-least-once duplicates (at heads and in the pool) and
/// out-of-order gap-skip arrivals. Floors rise, streams end and reopen at
/// random. Releases refuse emits at random.
///
/// A `wide` program spans many near-head windows over a few connections:
/// the source skips runs of sequences (declared lost or left to the
/// unreachable skip), and strays, floors and lost ranges also land at
/// the window's edge or up to three windows above the cursor.
void run_oracle(std::uint64_t seed, DeliveryMode mode, bool wide = false) {
  Rng rng(seed);
  const int n = 1 + static_cast<int>(rng.below(wide ? 6 : 130));
  const std::size_t capacity =
      rng.chance(0.3) ? 1 + rng.below(4) : Core::kUnbounded;
  const double refuse_p = std::vector<double>{0, 0.05, 0.3}[rng.below(3)];
  std::vector<int> active(1 + rng.below(static_cast<std::uint64_t>(
                                  std::min(n, 6))));
  for (int& j : active) j = static_cast<int>(rng.below(n));
  const auto pick = [&] {
    return rng.chance(0.85) ? active[rng.below(active.size())]
                            : static_cast<int>(rng.below(n));
  };

  obs::MetricsRegistry metrics;
  Core core(metrics, n, mode, capacity);
  Ref ref(n, mode, capacity);
  std::vector<std::deque<std::uint64_t>> in_flight(
      static_cast<std::size_t>(n));
  std::uint64_t sent = 0;
  TimeNs now = 0;
  const int steps = 1 + static_cast<int>(rng.below(wide ? 400 : 120));
  for (int step = 0; step <= steps; ++step) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " step " << step);
    const bool flush = step == steps;  // the end-of-input flush
    now += static_cast<TimeNs>(rng.below(5));
    const std::uint64_t op = flush ? 100 : rng.below(100);
    const std::uint64_t low = core.expected() > 3 ? core.expected() - 3 : 0;
    // A sequence from `low` up: near the newest send, or in a wide
    // program also at the window's edge or anywhere in three windows.
    const auto ahead = [&] {
      if (!wide || rng.chance(0.5)) return low + rng.below(sent + 8 - low);
      const std::uint64_t far = rng.chance(0.5)
                                    ? Core::kNear - 2 + rng.below(5)
                                    : rng.below(3 * Core::kNear);
      return core.expected() + far;
    };
    if (op < 30) {
      if (wide && rng.chance(0.15)) {  // the source skips a run
        const std::uint64_t run = ahead() - low;
        if (rng.chance(0.5)) {
          core.note_lost(sent, run, now);
          ref.note_lost(sent, run, now);
        }
        sent += run;
      }
      in_flight[static_cast<std::size_t>(pick())].push_back(sent++);
    } else if (op < 60) {
      const int j = pick();
      auto& wire = in_flight[static_cast<std::size_t>(j)];
      if (!wire.empty()) {
        const auto got = core.offer(j, wire.front());
        ASSERT_EQ(static_cast<int>(got),
                  static_cast<int>(ref.offer(j, wire.front())));
        if (got != Core::Offer::kFull) wire.pop_front();
      }
    } else if (op < 68) {
      const int j = pick();
      const std::uint64_t seq = ahead();
      ASSERT_EQ(static_cast<int>(core.offer(j, seq)),
                static_cast<int>(ref.offer(j, seq)));
    } else if (op < 76) {
      const std::uint64_t first = ahead();
      const std::uint64_t count =
          wide && rng.chance(0.3) ? rng.below(3 * Core::kNear) : rng.below(4);
      core.note_lost(first, count, now);
      ref.note_lost(first, count, now);
    } else if (op < 80) {
      ASSERT_EQ(core.skip_unreachable(), ref.skip_unreachable());
    } else if (op < 85) {
      const int j = pick();
      const std::uint64_t floor = ahead();
      switch (rng.below(4)) {
        case 0:
          core.close(j);
          ref.close(j);
          break;
        case 1:
          core.reopen(j);
          ref.reopen(j);
          break;
        default:
          core.raise_floor(j, floor);
          ref.raise_floor(j, floor);
          break;
      }
    } else if (op < 93) {
      const int j = pick();
      const std::uint64_t* h = core.head(j);
      const std::uint64_t* r = ref.head(j);
      ASSERT_EQ(h == nullptr, r == nullptr);
      if (h != nullptr) {
        ASSERT_EQ(*h, *r);
        if (rng.chance(0.5)) {
          core.pop(j);
          ref.pop(j);
        }
      }
    } else if (op < 96) {
      ASSERT_EQ(core.take_ack(), ref.take_ack());
    }
    if (flush) {
      // Runtime end-of-input: every stream ends, then skip to what is
      // queued until nothing is.
      for (int j = 0; j < n; ++j) {
        core.close(j);
        ref.close(j);
      }
      while (core.queued() > 0) {
        ASSERT_EQ(core.skip_unreachable(), ref.skip_unreachable());
        ASSERT_EQ(traced_release(core, 0, 0), traced_release(ref, 0, 0));
        ASSERT_EQ(core.queued(), ref.queued());
      }
    } else if (rng.chance(0.7)) {
      const std::uint64_t salt = rng();
      ASSERT_EQ(traced_release(core, salt, refuse_p),
                traced_release(ref, salt, refuse_p));
    }
    ASSERT_EQ(core.expected(), ref.expected());
    ASSERT_EQ(core.gaps(), ref.gaps());
    ASSERT_EQ(core.dup_discards(), ref.dup_discards());
    ASSERT_EQ(core.late_discards(), ref.late_discards());
    ASSERT_EQ(core.unacked(), ref.unacked());
    ASSERT_EQ(core.queued(), ref.queued());
    ASSERT_EQ(core.pooled(), ref.pooled());
    ASSERT_EQ(freed(core), freed(ref));
  }
}

TEST(ReleaseCoreOracle, GapSkipMatchesThePlainScan) {
  for (std::uint64_t seed = 1; seed <= 12'000; ++seed) {
    run_oracle(seed, DeliveryMode::kGapSkip);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(ReleaseCoreOracle, AtLeastOnceMatchesThePlainScan) {
  for (std::uint64_t seed = 1; seed <= 12'000; ++seed) {
    run_oracle(seed, DeliveryMode::kAtLeastOnce);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(ReleaseCoreOracle, GapSkipMatchesThePlainScanAcrossWindows) {
  for (std::uint64_t seed = 1; seed <= 3'000; ++seed) {
    run_oracle(seed, DeliveryMode::kGapSkip, /*wide=*/true);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(ReleaseCoreOracle, AtLeastOnceMatchesThePlainScanAcrossWindows) {
  for (std::uint64_t seed = 1; seed <= 3'000; ++seed) {
    run_oracle(seed, DeliveryMode::kAtLeastOnce, /*wide=*/true);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// The core and the reference driven call for call; each call's result
/// and the counters after it must agree.
class Twin {
 public:
  Twin(int n, DeliveryMode mode)
      : n_(n), core_(metrics_, n, mode), ref_(n, mode) {}

  void offer(int j, std::uint64_t seq) {
    EXPECT_EQ(static_cast<int>(core_.offer(j, seq)),
              static_cast<int>(ref_.offer(j, seq)))
        << "offer " << seq << " on " << j;
    check();
  }
  void lose(std::uint64_t first, std::uint64_t count) {
    core_.note_lost(first, count, 0);
    ref_.note_lost(first, count, 0);
  }
  /// The ungated pop of parallel sinks, if connection j holds anything.
  void pop(int j) {
    ASSERT_EQ(core_.head(j) == nullptr, ref_.head(j) == nullptr);
    if (core_.head(j) == nullptr) return;
    EXPECT_EQ(*core_.head(j), *ref_.head(j));
    core_.pop(j);
    ref_.pop(j);
    check();
  }
  void close_all() {
    for (int j = 0; j < n_; ++j) {
      core_.close(j);
      ref_.close(j);
    }
  }
  void skip() {
    EXPECT_EQ(core_.skip_unreachable(), ref_.skip_unreachable());
    check();
  }
  void release() {
    EXPECT_EQ(traced_release(core_, 0, 0), traced_release(ref_, 0, 0))
        << "cursor " << ref_.expected();
    check();
  }
  const Core& core() const { return core_; }

 private:
  void check() {
    EXPECT_EQ(core_.expected(), ref_.expected());
    EXPECT_EQ(core_.gaps(), ref_.gaps());
    EXPECT_EQ(core_.dup_discards(), ref_.dup_discards());
    EXPECT_EQ(core_.late_discards(), ref_.late_discards());
    EXPECT_EQ(core_.queued(), ref_.queued());
    EXPECT_EQ(core_.pooled(), ref_.pooled());
    EXPECT_EQ(freed(core_), freed(ref_));
  }

  int n_;
  obs::MetricsRegistry metrics_;
  Core core_;
  Ref ref_;
};

constexpr std::uint64_t kNear = Core::kNear;

TEST(ReleaseCoreOracle, HeadsAtTheWindowEdgeAndPastIt) {
  // Heads kNear - 1, kNear and kNear + 1 above the cursor: the first is
  // in the window, the other two wait in the heap.
  Twin t(4, DeliveryMode::kGapSkip);
  t.offer(1, kNear - 1);
  t.offer(2, kNear);
  t.offer(3, kNear + 1);
  for (std::uint64_t s = 0; s + 1 < kNear; ++s) {
    t.offer(0, s);
    t.release();
  }
  EXPECT_EQ(t.core().expected(), kNear + 2);
  EXPECT_EQ(t.core().queued(), 0u);
}

TEST(ReleaseCoreOracle, JumpsOfAWindowOrMoreReachEveryHead) {
  Twin t(3, DeliveryMode::kGapSkip);
  // Window heads 3 and 10 and a heap head; one lost range covers all
  // three and moves the cursor two windows: each head is now stale.
  t.offer(0, 10);
  t.offer(1, kNear + 5);
  t.offer(2, 3);
  t.lose(0, 2 * kNear);
  t.release();
  EXPECT_EQ(t.core().late_discards(), 3u);
  // The end-of-input flush: skips of less than a window and of more.
  t.offer(0, 2 * kNear + 50);
  t.offer(1, 4 * kNear);
  t.offer(2, 2 * kNear + 60);
  t.offer(2, 6 * kNear);
  t.close_all();
  for (int i = 0; i < 4; ++i) {
    t.skip();
    t.release();
  }
  EXPECT_EQ(t.core().expected(), 6 * kNear + 1);
  EXPECT_EQ(t.core().queued(), 0u);
}

TEST(ReleaseCoreOracle, DuplicateHeadsOnOneSlot) {
  // At-least-once: two connections hold the same head above the cursor.
  // The first takes the slot, the second waits in the heap; when the
  // cursor arrives, the lower connection emits and the other copy is a
  // dup_discard. Both filing orders, and a third copy on connection 0.
  Twin t(4, DeliveryMode::kAtLeastOnce);
  t.offer(2, 5);
  t.offer(1, 5);
  for (std::uint64_t s = 0; s < 5; ++s) t.offer(0, s);
  t.release();
  EXPECT_EQ(t.core().dup_discards(), 1u);
  const std::uint64_t d = kNear + 5;  // kNear - 1 above the cursor
  t.offer(1, d);
  t.offer(3, d);
  t.offer(2, d);
  for (std::uint64_t s = 6; s < d; ++s) t.offer(0, s);
  t.offer(0, d);
  t.release();
  EXPECT_EQ(t.core().expected(), d + 1);
  EXPECT_EQ(t.core().dup_discards(), 4u);
  EXPECT_EQ(t.core().queued(), 0u);
}

TEST(ReleaseCoreOracle, SlotsAliasAfterTheRingWraps) {
  // Fan-out over 4 connections for four windows: sequence s travels on
  // connection s % 4 and the connections' streams interleave at random,
  // so heads wait above the cursor and every slot is reused. Ungated
  // pops now and then leave stale slots for later sequences to find.
  Twin t(4, DeliveryMode::kGapSkip);
  Rng rng(29);
  std::vector<std::uint64_t> next = {0, 1, 2, 3};
  while (next[0] < 4 * kNear) {
    const int j = static_cast<int>(rng.below(4));
    t.offer(j, next[static_cast<std::size_t>(j)]);
    next[static_cast<std::size_t>(j)] += 4;
    if (rng.chance(0.01)) t.pop(static_cast<int>(rng.below(4)));
    if (rng.chance(0.5)) t.release();
    if (::testing::Test::HasFailure()) return;
  }
  t.close_all();
  while (t.core().queued() > 0 && !::testing::Test::HasFailure()) {
    t.skip();
    t.release();
  }
}

TEST(ReleaseCoreOracle, UngatedPopsAboveTheCursorKeepTheIndexExact) {
  // Parallel sinks pop heads the cursor has not reached, which leaves
  // what was filed for them stale. Connection 1 gets two arrivals a
  // window or more above the cursor and pops both, so two stale heap
  // entries pile up per step and the heap rebuilds every few dozen
  // steps. Connections 2 and 3 hold heads filed a window up, which the
  // cursor reaches one step at a time as connection 0 delivers it, so
  // they sit in the heap through rebuilds, first far and then near; under
  // at-least-once, copies on both make duplicate heads.
  for (const DeliveryMode mode :
       {DeliveryMode::kGapSkip, DeliveryMode::kAtLeastOnce}) {
    Twin t(4, mode);
    Rng rng(11);
    for (int i = 0; i < 4000 && !::testing::Test::HasFailure(); ++i) {
      const std::uint64_t cursor = t.core().expected();
      t.offer(1, cursor + kNear + rng.below(kNear));
      t.offer(1, cursor + kNear + rng.below(kNear));
      t.pop(1);
      t.pop(1);
      if (rng.chance(0.05)) {
        const std::uint64_t seq = cursor + kNear + rng.below(64);
        const int j = 2 + static_cast<int>(rng.below(2));
        t.offer(j, seq);
        if (mode == DeliveryMode::kAtLeastOnce && rng.chance(0.3)) {
          t.offer(5 - j, seq);
        }
      }
      if (rng.chance(0.01)) t.pop(2 + static_cast<int>(rng.below(2)));
      t.offer(0, cursor);
      t.release();
    }
    t.close_all();
    while (t.core().queued() > 0 && !::testing::Test::HasFailure()) {
      t.skip();
      t.release();
    }
  }
}

// --- 4. two-adapter parity --------------------------------------------

/// One scripted arrival on connection `conn`: a tuple, or a gap frame
/// declaring [seq, seq + count) shed. Two more kinds: a watermark (a
/// zero-count gap frame at `seq`, which the simulator needs no word of),
/// and the stream's end without a FIN, a crash that the simulator is told
/// lost [seq, seq + count).
struct Arrival {
  enum Kind { kFrame, kWatermark, kEnd };
  int conn;
  std::uint64_t seq;
  std::uint64_t count = 0;  // > 0: gap declaration
  Kind kind = kFrame;
};
/// Arrivals in one step may race each other on the runtime (different
/// sockets); scripts only group arrivals whose outcome is order-free.
using Step = std::vector<Arrival>;

struct Counters {
  std::uint64_t emitted = 0;
  std::uint64_t gaps = 0;
  std::uint64_t dups = 0;
  std::uint64_t lates = 0;
  bool operator==(const Counters&) const = default;
};

void PrintTo(const Counters& c, std::ostream* os) {
  *os << "{emitted " << c.emitted << ", gaps " << c.gaps << ", dups "
      << c.dups << ", lates " << c.lates << "}";
}

/// rt::MergerPe fed over socketpairs; the test holds the worker ends.
class RtMergerHarness {
 public:
  RtMergerHarness(int conns, DeliveryMode mode, bool with_acks) {
    std::vector<net::Fd> readers;
    for (int j = 0; j < conns; ++j) {
      int sv[2];
      EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
      writers_.emplace_back(sv[0]);
      readers.emplace_back(sv[1]);
    }
    net::Fd ack_out;
    if (with_acks) {
      int sv[2];
      EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
      ack_in_ = net::Fd(sv[0]);
      ack_out = net::Fd(sv[1]);
    }
    merger_ = std::make_unique<rt::MergerPe>(
        std::move(readers), net::Listener(), metrics_, mode,
        std::move(ack_out));
  }

  void send(const Arrival& a) {
    net::Fd& w = writers_[static_cast<std::size_t>(a.conn)];
    if (a.kind == Arrival::kEnd) {
      w.reset();
      return;
    }
    std::vector<std::uint8_t> bytes;
    if (a.count > 0 || a.kind == Arrival::kWatermark) {
      bytes = net::gap_bytes(a.seq, a.count);
    } else {
      net::encode_frame(net::Frame{a.seq, {}}, bytes);
    }
    net::write_all(w.get(), bytes.data(), bytes.size());
  }

  Counters counters() const {
    return {merger_->emitted(), merger_->gaps(), merger_->dup_discards(),
            merger_->late_discards()};
  }

  /// Polls until the merger's counters equal `want` (or a generous
  /// deadline passes) and returns what it saw last.
  Counters await(const Counters& want) const {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    Counters got = counters();
    while (!(got == want) && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      got = counters();
    }
    return got;
  }

  /// FINs every open stream, shuts the merger down (ended streams are
  /// final) and waits for its thread to finish.
  void finish() {
    const std::vector<std::uint8_t> fin = net::fin_bytes();
    for (const net::Fd& w : writers_) {
      if (w.valid()) net::write_all(w.get(), fin.data(), fin.size());
    }
    merger_->begin_shutdown();
    merger_->join();
  }

  /// Last cumulative ack the merger wrote (0 if none).
  std::uint64_t last_ack() {
    net::FrameDecoder decoder;
    std::vector<std::uint8_t> buf(4096);
    for (;;) {
      const ssize_t got =
          ::recv(ack_in_.get(), buf.data(), buf.size(), MSG_DONTWAIT);
      if (got <= 0) break;
      decoder.feed(buf.data(), static_cast<std::size_t>(got));
    }
    std::uint64_t last = 0;
    net::Frame frame;
    while (decoder.next(frame)) {
      if (frame.is_ack()) last = frame.ack_value();
    }
    return last;
  }

  rt::MergerPe& merger() { return *merger_; }

 private:
  std::vector<net::Fd> writers_;
  net::Fd ack_in_;
  obs::MetricsRegistry metrics_;  // outlives the merger thread
  std::unique_ptr<rt::MergerPe> merger_;
};

/// Plays `script` through both adapters, step by step, and requires the
/// runtime to reach the simulator's counters after every step and at the
/// end. Returns the final counters.
Counters expect_parity(const std::vector<Step>& script, int conns,
                       DeliveryMode mode) {
  sim::Simulator sim;
  obs::MetricsRegistry metrics;
  sim::Merger sim_merger(&sim, metrics, conns, sim::Merger::kUnbounded,
                         /*ordered=*/true, mode);
  Seqs sim_out;
  sim_merger.set_on_emit([&](const sim::Tuple& t) { sim_out.push_back(t.seq); });
  std::uint64_t sim_ack = 0;
  sim_merger.set_on_ack([&](std::uint64_t cum) { sim_ack = cum; }, 0);

  const bool alo = mode == DeliveryMode::kAtLeastOnce;
  RtMergerHarness rt(conns, mode, /*with_acks=*/alo);

  const auto sim_counters = [&] {
    return Counters{sim_merger.emitted(), sim_merger.gaps(),
                    sim_merger.dup_discards(), sim_merger.late_discards()};
  };
  for (std::size_t i = 0; i < script.size(); ++i) {
    for (const Arrival& a : script[i]) {
      if (a.count > 0) {
        sim_merger.note_lost(a.seq, a.count);
      } else if (a.kind == Arrival::kFrame) {
        sim_merger.try_push(a.conn, sim::Tuple{a.seq, 0});
      }
      rt.send(a);
    }
    run_until_idle(sim);
    const Counters want = sim_counters();
    EXPECT_EQ(rt.await(want), want) << "after step " << i;
  }
  rt.finish();
  const Counters want = sim_counters();
  EXPECT_EQ(rt.counters(), want) << "after end of input";
  EXPECT_TRUE(strictly_increasing(sim_out));
  EXPECT_TRUE(rt.merger().order_ok());
  if (alo) {
    EXPECT_EQ(rt.last_ack(), sim_ack);
  }
  return want;
}

TEST(MergerParity, GapSkipGapsAndLateArrivalsMatch) {
  const std::vector<Step> script = {
      {{0, 0}, {0, 2}, {0, 4}},  // 0 released, 2 and 4 wait
      {{1, 1}},                  // 1, 2 released; 3 missing
      {{1, 3, 1}},               // 3 declared shed: skipped, 4 released
      {{0, 3}},                  // the "shed" tuple arrives after all
      {{1, 5}, {0, 6}},
      {{1, 7, 2}},               // a two-sequence gap range
      {{0, 9}},
      {{1, 8}},                  // late again
  };
  const Counters c = expect_parity(script, 2, DeliveryMode::kGapSkip);
  EXPECT_EQ(c, (Counters{7, 3, 0, 2}));
}

TEST(MergerParity, ShedRangesMatch) {
  const std::vector<Step> script = {
      {{0, 0}, {0, 2}},
      {{1, 1}, {1, 3, 2}},
      {{0, 5}},
  };
  const Counters c = expect_parity(script, 2, DeliveryMode::kGapSkip);
  EXPECT_EQ(c, (Counters{4, 2, 0, 0}));
}

TEST(MergerParity, AtLeastOnceReplaysPoolAndDedupMatch) {
  const std::vector<Step> script = {
      {{0, 1}, {0, 2}, {1, 3}},  // all gated on 0
      {{1, 0}},                  // replay behind 3: pooled, 0..3 out
      {{0, 0}},                  // replay echo
      {{1, 2}},                  // another echo
      {{1, 5}, {1, 4}},          // 4 behind 5 on one stream: pooled
      {{0, 4}},
      {{0, 7}, {0, 8}, {1, 6}},
      {{0, 11}, {1, 12}},        // gated on 9
      {{1, 10}, {1, 10}},        // pooled, then a pool collision
      {{0, 9}},
  };
  const Counters c = expect_parity(script, 2, DeliveryMode::kAtLeastOnce);
  EXPECT_EQ(c, (Counters{13, 0, 4, 0}));
}

TEST(MergerParity, StreamEndMatchesDeclaredLoss) {
  // The simulator is told which sequences died with worker 2; the runtime
  // sees worker 2's stream end without a FIN and infers the same gaps
  // once stream 1, idle since 1, is past them too.
  const std::vector<Step> script = {
      {{0, 0}, {1, 1}, {0, 2}},
      {{0, 5}, {0, 6}},  // gated on 3, which worker 2 holds
      {{2, 3, 2, Arrival::kEnd}, {1, 7, 0, Arrival::kWatermark}},
      {{1, 7}},
      {{0, 8}},
  };
  const Counters c = expect_parity(script, 3, DeliveryMode::kGapSkip);
  EXPECT_EQ(c, (Counters{7, 2, 0, 0}));
}

TEST(MergerParity, IdleStretchDoesNotSkipAHealthySequence) {
  // An open stream may still carry the cursor however long it stays
  // idle, so the runtime skips nothing on time alone; with another
  // stream ended, the idle one still holds the cursor until it moves
  // past it.
  RtMergerHarness rt(3, DeliveryMode::kGapSkip, false);
  rt.send({1, 1});  // e + 1 first...
  rt.send({2, 2});
  rt.send({2, 3, 0, Arrival::kEnd});
  std::this_thread::sleep_for(std::chrono::milliseconds(450));
  EXPECT_EQ(rt.counters(), (Counters{0, 0, 0, 0}));
  rt.send({0, 0});  // ...then e, after the idle stretch
  EXPECT_EQ(rt.await(Counters{3, 0, 0, 0}), (Counters{3, 0, 0, 0}));
  rt.send({1, 5});  // 3 and 4 died with stream 2; stream 0 may carry them
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(rt.counters(), (Counters{3, 0, 0, 0}));
  rt.send({0, 6});  // now no open stream can
  EXPECT_EQ(rt.await(Counters{5, 2, 0, 0}), (Counters{5, 2, 0, 0}));
  rt.finish();
  EXPECT_EQ(rt.counters(), (Counters{5, 2, 0, 0}));
  EXPECT_TRUE(rt.merger().order_ok());
}

TEST(MergerParity, UnclaimedReadmissionHoldsTheSkip) {
  // A restarted worker's stream may carry anything from the cursor up, so
  // while its dial is not yet claimed by a hello, the runtime merger
  // infers nothing, even with every other stream past the cursor.
  RtMergerHarness rt(3, DeliveryMode::kGapSkip, false);
  rt.send({2, 0, 0, Arrival::kEnd});  // worker 2 crashed
  net::Fd dial = net::connect_loopback(rt.merger().reconnect_port(), 1000);
  rt.send({0, 1});
  rt.send({1, 2});
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(rt.counters(), (Counters{0, 0, 0, 0}));
  std::vector<std::uint8_t> bytes = net::hello_bytes(2);
  net::encode_frame(net::Frame{0, {}}, bytes);
  const std::vector<std::uint8_t> fin = net::fin_bytes();
  bytes.insert(bytes.end(), fin.begin(), fin.end());
  net::write_all(dial.get(), bytes.data(), bytes.size());
  EXPECT_EQ(rt.await(Counters{3, 0, 0, 0}), (Counters{3, 0, 0, 0}));
  rt.finish();
  EXPECT_EQ(rt.counters(), (Counters{3, 0, 0, 0}));
}

TEST(MergerParity, SkipBeforeAnyCrashIsAnOrderViolation) {
  // Sequence 1 never arrives. With no stream ended without a FIN nothing
  // was lost, so the end-of-input flush that skips it breaks order; once
  // stream 1 has crashed, the same skip is a loss and order holds.
  for (const bool crash : {false, true}) {
    SCOPED_TRACE(crash ? "stream 1 crashed" : "no crash");
    RtMergerHarness rt(2, DeliveryMode::kGapSkip, false);
    if (crash) rt.send({1, 0, 0, Arrival::kEnd});
    rt.send({0, 0});
    rt.send({0, 2});
    rt.finish();
    EXPECT_EQ(rt.counters(), (Counters{2, 1, 0, 0}));
    EXPECT_EQ(rt.merger().order_ok(), crash);
  }
}

}  // namespace
}  // namespace slb
