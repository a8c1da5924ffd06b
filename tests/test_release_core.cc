// The ordered-release core shared by both mergers (DESIGN.md §10).
//
// Four layers of evidence:
//   1. unit cases for each piece the core owns (cursor, replay pool,
//      stale classification, lost ranges, gap wait, capacity, stall
//      timer, skip-to-lowest-queued, ack cursor);
//   2. an exhaustive model check over every arrival interleaving of small
//      regions (≤3 connections × ≤6 sequences) with optional losses, late
//      arrivals, a gap-timeout skip, and at-least-once replays;
//   3. a differential oracle: seeded random operation sequences over up
//      to 130 connections drive the core and the plain-scan reference
//      (linear_release_core.h) and require identical observable behaviour
//      after every step;
//   4. parity: one scripted arrival sequence fed to sim::Merger and to
//      rt::MergerPe (over socketpairs carrying encoded frames) must give
//      identical counters — plus the runtime's gap-timer regression.
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
void release(Core& core, Seqs& out, TimeNs now = 0) {
  core.release(now, [&](int, std::uint64_t seq) {
    out.push_back(seq);
    return true;
  });
}

// --- 1. unit cases ----------------------------------------------------

TEST(ReleaseCore, CursorReleasesInSequenceOrderAcrossConnections) {
  Core core(2, DeliveryMode::kGapSkip);
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
    Core core(2, mode);
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

TEST(ReleaseCore, ReplayBehindNewerSequencesIsPooledAndReleased) {
  Core core(2, DeliveryMode::kAtLeastOnce);
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
  Core core(1, DeliveryMode::kGapSkip);
  core.offer(0, 3);
  core.offer(0, 1);
  EXPECT_EQ(core.pooled(), 0u);
  EXPECT_EQ(core.queue_size(0), 2u);
}

TEST(ReleaseCore, PooledEntryOvertakenByTheCursorIsDiscarded) {
  Core core(2, DeliveryMode::kAtLeastOnce);
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
  Core core(1, DeliveryMode::kGapSkip);
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
  Core core(1, DeliveryMode::kGapSkip);
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
  core.release(400, emit, on_gap);
  EXPECT_TRUE(out.empty());  // 0 has not arrived; the gap is not reached
  EXPECT_TRUE(waits.empty());
  core.offer(0, 0);  // behind 3 on a GapSkip connection: queued, stuck
  core.skip_to_lowest_queued();
  EXPECT_EQ(core.expected(), 3u);  // jumped over 0..2, range dropped
  EXPECT_EQ(core.gaps(), 3u);
  core.release(500, emit, on_gap);
  EXPECT_TRUE(waits.empty());  // the lost range lay below the jump
  EXPECT_EQ(out, (Seqs{3}));

  Core fresh(1, DeliveryMode::kGapSkip);
  fresh.note_lost(0, 2, 100);
  fresh.offer(0, 2);
  fresh.release(400, emit, on_gap);
  ASSERT_EQ(waits.size(), 1u);
  EXPECT_EQ(waits[0].first, 2u);
  EXPECT_EQ(waits[0].second, 100);
}

TEST(ReleaseCore, CapacityBoundsEachQueue) {
  Core core(2, DeliveryMode::kGapSkip, 2);
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
  Core core(1, DeliveryMode::kGapSkip);
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
  core.release(0, emit);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(core.expected(), 0u);
  open = true;
  core.release(0, emit);
  EXPECT_EQ(out, (Seqs{0}));
  open = true;
  core.release(0, emit);
  EXPECT_EQ(out, (Seqs{0, 1}));
}

TEST(ReleaseCore, SkipToLowestQueuedFlushesAndCountsGaps) {
  Core core(3, DeliveryMode::kGapSkip);
  Seqs out;
  EXPECT_EQ(core.skip_to_lowest_queued(), 0u);  // nothing queued
  core.offer(0, 4);
  core.offer(1, 2);
  core.offer(2, 7);
  core.note_lost(3, 1, 0);
  release(core, out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(core.skip_to_lowest_queued(), 2u);  // 0, 1
  release(core, out);
  EXPECT_EQ(out, (Seqs{2, 4}));  // 3 skipped as a declared gap
  EXPECT_EQ(core.skip_to_lowest_queued(), 2u);  // 5, 6
  release(core, out);
  EXPECT_EQ(out, (Seqs{2, 4, 7}));
  EXPECT_EQ(core.gaps(), 5u);
  EXPECT_EQ(core.queued(), 0u);
}

TEST(ReleaseCore, StallTimerStartsWhenTheLineBlocksNotAtTheLastRelease) {
  // Regression: the runtime merger measured the gap timeout from the last
  // release (or from thread start), so after any idle stretch longer than
  // the timeout the first out-of-order arrival skipped a healthy
  // sequence. The timer must start when the head of the line blocks.
  constexpr DurationNs kTimeout = millis(500);
  Core core(2, DeliveryMode::kGapSkip);
  Seqs out;
  core.offer(0, 0);
  release(core, out, 0);
  EXPECT_FALSE(core.stalled(0, kTimeout));
  const TimeNs idle_until = seconds(3);
  release(core, out, idle_until);  // idle polls: nothing queued
  EXPECT_FALSE(core.stalled(idle_until, kTimeout));
  core.offer(1, 2);  // e + 1 arrives first
  release(core, out, idle_until);
  EXPECT_FALSE(core.stalled(idle_until, kTimeout));
  EXPECT_FALSE(core.stalled(idle_until + millis(10), kTimeout));
  core.offer(0, 1);  // e arrives well inside the timeout
  release(core, out, idle_until + millis(10));
  EXPECT_EQ(out, (Seqs{0, 1, 2}));
  EXPECT_EQ(core.gaps(), 0u);
  EXPECT_EQ(core.late_discards(), 0u);
}

TEST(ReleaseCore, StallTimerFiresAfterTimeoutAndRestartsOnProgress) {
  constexpr DurationNs kTimeout = millis(100);
  Core core(2, DeliveryMode::kGapSkip);
  Seqs out;
  core.offer(1, 1);
  core.offer(1, 3);
  release(core, out, millis(5));
  EXPECT_FALSE(core.stalled(millis(104), kTimeout));
  release(core, out, millis(50));  // no progress: the timer keeps running
  EXPECT_TRUE(core.stalled(millis(105), kTimeout));
  core.offer(0, 0);
  release(core, out, millis(105));  // progress, still blocked on 2
  EXPECT_EQ(out, (Seqs{0, 1}));
  EXPECT_FALSE(core.stalled(millis(204), kTimeout));
  EXPECT_TRUE(core.stalled(millis(205), kTimeout));
  core.skip_to_lowest_queued();
  release(core, out, millis(205));
  EXPECT_EQ(out, (Seqs{0, 1, 3}));
  EXPECT_FALSE(core.stalled(seconds(10), kTimeout));  // nothing queued
}

TEST(ReleaseCore, AckCursorTracksUnacknowledgedReleases) {
  Core core(1, DeliveryMode::kAtLeastOnce);
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
  delivery::ReleaseCore<sim::Tuple> core(2, DeliveryMode::kGapSkip);
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
  enum Kind { kArrive, kLost, kSkip } kind;
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

/// Plays one arrival order through a fresh core (releasing after every
/// event, as both adapters do), then the runtime's end-of-input flush.
Playback play(Core& core, const std::vector<Event>& order) {
  Playback run;
  const auto emit = [&](int, std::uint64_t seq) {
    run.emitted.push_back(seq);
    return true;
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
      case Event::kSkip:
        core.skip_to_lowest_queued();
        break;
    }
    core.release(0, emit);
  }
  run.queued_before_flush = core.queued();
  while (core.queued() > 0) {
    core.skip_to_lowest_queued();
    core.release(0, emit);
  }
  return run;
}

bool strictly_increasing(const Seqs& s) {
  for (std::size_t i = 1; i < s.size(); ++i) {
    if (s[i] <= s[i - 1]) return false;
  }
  return true;
}

/// GapSkip: every sequence is sent on its assigned connection and either
/// arrives, is declared lost (never arrives), or is declared lost and
/// arrives anyway. Optionally one gap-timeout skip fires at any point.
/// Invariants: strict order, emitted + gaps == sent + shed, and every
/// arrival is emitted or counted late.
std::uint64_t check_gap_skip(int conns, int seqs, int fates, bool skip) {
  std::uint64_t leaves = 0;
  for_each_choice(seqs, conns, [&](const std::vector<int>& assign) {
    for_each_choice(seqs, fates, [&](const std::vector<int>& fate) {
      std::vector<Stream> streams(static_cast<std::size_t>(conns));
      for (int s = 0; s < seqs; ++s) {
        const auto su = static_cast<std::size_t>(s);
        const auto seq = static_cast<std::uint64_t>(s);
        if (fate[su] != 1) {
          streams[static_cast<std::size_t>(assign[su])].push_back(
              Event{Event::kArrive, seq, assign[su]});
        }
        if (fate[su] != 0) streams.push_back({Event{Event::kLost, seq, 0}});
      }
      if (skip) streams.push_back({Event{Event::kSkip, 0, 0}});
      leaves += for_each_interleaving(streams, [&](const auto& order) {
        if (::testing::Test::HasFatalFailure()) return;
        Core core(conns, DeliveryMode::kGapSkip);
        const Playback run = play(core, order);
        ASSERT_TRUE(strictly_increasing(run.emitted));
        ASSERT_EQ(core.expected(), static_cast<std::uint64_t>(seqs));
        ASSERT_EQ(run.emitted.size() + core.gaps(),
                  static_cast<std::uint64_t>(seqs));
        ASSERT_EQ(run.emitted.size() + core.late_discards(), run.arrivals);
        ASSERT_EQ(core.dup_discards(), 0u);
        ASSERT_EQ(core.lost_pending(), 0u);
        if (!skip && fates == 1) {
          // Nothing lost, no timeout: all of it, in order, no flush.
          ASSERT_EQ(run.queued_before_flush, 0u);
          ASSERT_EQ(core.gaps(), 0u);
        }
      });
    });
  });
  return leaves;
}

TEST(ReleaseCoreModel, EveryInterleavingOfThreeConnectionsSixSequences) {
  EXPECT_EQ(check_gap_skip(3, 6, /*fates=*/1, /*skip=*/false), 35169u);
}

TEST(ReleaseCoreModel, GapSkipWithLossesLateArrivalsAndTimeoutSkip) {
  // fates: arrive / lost / lost-but-arrives-late.
  EXPECT_EQ(check_gap_skip(3, 3, /*fates=*/3, /*skip=*/false), 32286u);
  EXPECT_EQ(check_gap_skip(2, 3, /*fates=*/3, /*skip=*/true), 46640u);
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
        Core core(kConns, DeliveryMode::kAtLeastOnce);
        const Playback run = play(core, order);
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
std::vector<Call> traced_release(C& core, TimeNs now, std::uint64_t salt,
                                 double refuse_p) {
  std::vector<Call> calls;
  std::uint64_t i = 0;
  core.release(
      now,
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
/// out-of-order gap-skip arrivals. Releases refuse emits at random.
void run_oracle(std::uint64_t seed, DeliveryMode mode) {
  Rng rng(seed);
  const int n = 1 + static_cast<int>(rng.below(130));
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

  Core core(n, mode, capacity);
  Ref ref(n, mode, capacity);
  std::vector<std::deque<std::uint64_t>> in_flight(
      static_cast<std::size_t>(n));
  std::uint64_t sent = 0;
  TimeNs now = 0;
  const int steps = 1 + static_cast<int>(rng.below(120));
  for (int step = 0; step <= steps; ++step) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " step " << step);
    const bool flush = step == steps;  // the end-of-input flush
    now += static_cast<TimeNs>(rng.below(5));
    const std::uint64_t op = flush ? 100 : rng.below(100);
    const std::uint64_t low = core.expected() > 3 ? core.expected() - 3 : 0;
    if (op < 30) {
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
      const std::uint64_t seq = low + rng.below(sent + 8 - low);
      ASSERT_EQ(static_cast<int>(core.offer(j, seq)),
                static_cast<int>(ref.offer(j, seq)));
    } else if (op < 76) {
      const std::uint64_t first = low + rng.below(sent + 8 - low);
      const std::uint64_t count = rng.below(4);
      core.note_lost(first, count, now);
      ref.note_lost(first, count, now);
    } else if (op < 80) {
      ASSERT_EQ(core.skip_to_lowest_queued(), ref.skip_to_lowest_queued());
    } else if (op < 85) {
      const auto timeout = static_cast<DurationNs>(rng.below(6));
      ASSERT_EQ(core.stalled(now, timeout), ref.stalled(now, timeout));
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
      // Runtime end-of-input: skip to what is queued until nothing is.
      while (core.queued() > 0) {
        ASSERT_EQ(core.skip_to_lowest_queued(), ref.skip_to_lowest_queued());
        ASSERT_EQ(traced_release(core, now, 0, 0),
                  traced_release(ref, now, 0, 0));
      }
    } else if (rng.chance(0.7)) {
      const std::uint64_t salt = rng();
      ASSERT_EQ(traced_release(core, now, salt, refuse_p),
                traced_release(ref, now, salt, refuse_p));
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

TEST(ReleaseCoreOracle, UngatedPopsAboveTheCursorKeepTheIndexExact) {
  // Parallel sinks pop heads the cursor has not reached, which leaves
  // their heap entries stale; thousands of them force the index to
  // rebuild many times. Gated skips and releases in between read it.
  Core core(4, DeliveryMode::kGapSkip);
  Ref ref(4, DeliveryMode::kGapSkip);
  Rng rng(11);
  std::uint64_t seq = 1;  // sequence 0 never arrives
  for (int i = 0; i < 3000; ++i) {
    const int j = static_cast<int>(rng.below(4));
    ASSERT_EQ(static_cast<int>(core.offer(j, seq)),
              static_cast<int>(ref.offer(j, seq)));
    ++seq;
    const int k = static_cast<int>(rng.below(4));
    if (rng.chance(0.4) && core.head(k) != nullptr) {
      ASSERT_EQ(*core.head(k), *ref.head(k));
      core.pop(k);
      ref.pop(k);
    }
    if (i % 97 == 96) {
      ASSERT_EQ(core.skip_to_lowest_queued(), ref.skip_to_lowest_queued());
      ASSERT_EQ(traced_release(core, i, 0, 0), traced_release(ref, i, 0, 0));
    }
  }
  ASSERT_EQ(freed(core), freed(ref));
  EXPECT_EQ(core.expected(), ref.expected());
  EXPECT_EQ(core.gaps(), ref.gaps());
}

// --- 4. two-adapter parity --------------------------------------------

/// One scripted arrival: a tuple, or a gap frame declaring [seq, seq +
/// count) shed, on connection `conn`.
struct Arrival {
  int conn;
  std::uint64_t seq;
  std::uint64_t count = 0;  // > 0: gap declaration
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
  RtMergerHarness(int conns, rt::MergerFaultConfig fault, DeliveryMode mode,
                  bool with_acks) {
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
    merger_ = std::make_unique<rt::MergerPe>(std::move(readers), metrics_,
                                             fault, mode, std::move(ack_out));
  }

  void send(const Arrival& a) {
    std::vector<std::uint8_t> bytes;
    if (a.count > 0) {
      bytes = net::gap_bytes(a.seq, a.count);
    } else {
      net::encode_frame(net::Frame{a.seq, {}}, bytes);
    }
    net::write_all(writers_[static_cast<std::size_t>(a.conn)].get(),
                   bytes.data(), bytes.size());
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

  /// FINs every stream and waits for the merger thread to finish.
  void finish() {
    const std::vector<std::uint8_t> fin = net::fin_bytes();
    for (const net::Fd& w : writers_) {
      net::write_all(w.get(), fin.data(), fin.size());
    }
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
Counters expect_parity(const std::vector<Step>& script, int conns, bool ft,
                       DeliveryMode mode) {
  sim::Simulator sim;
  sim::Merger sim_merger(&sim, conns, sim::Merger::kUnbounded);
  sim_merger.set_delivery_mode(mode);
  Seqs sim_out;
  sim_merger.set_on_emit([&](const sim::Tuple& t) { sim_out.push_back(t.seq); });
  std::uint64_t sim_ack = 0;
  sim_merger.set_on_ack([&](std::uint64_t cum) { sim_ack = cum; }, 0);

  rt::MergerFaultConfig fault;
  fault.enabled = ft;
  fault.gap_timeout = seconds(60);  // no timeout skips: gaps are declared
  const bool alo = mode == DeliveryMode::kAtLeastOnce;
  RtMergerHarness rt(conns, fault, mode, /*with_acks=*/alo);

  const auto sim_counters = [&] {
    return Counters{sim_merger.emitted(), sim_merger.gaps(),
                    sim_merger.dup_discards(), sim_merger.late_discards()};
  };
  for (std::size_t i = 0; i < script.size(); ++i) {
    for (const Arrival& a : script[i]) {
      if (a.count > 0) {
        sim_merger.note_lost(a.seq, a.count);
      } else {
        sim_merger.try_push(a.conn, sim::Tuple{a.seq, 0});
      }
      rt.send(a);
    }
    sim.run_until_idle();
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
  const Counters c =
      expect_parity(script, 2, /*ft=*/true, DeliveryMode::kGapSkip);
  EXPECT_EQ(c, (Counters{7, 3, 0, 2}));
}

TEST(MergerParity, PlainModeShedRangesMatch) {
  const std::vector<Step> script = {
      {{0, 0}, {0, 2}},
      {{1, 1}, {1, 3, 2}},
      {{0, 5}},
  };
  const Counters c =
      expect_parity(script, 2, /*ft=*/false, DeliveryMode::kGapSkip);
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
  const Counters c =
      expect_parity(script, 2, /*ft=*/false, DeliveryMode::kAtLeastOnce);
  EXPECT_EQ(c, (Counters{13, 0, 4, 0}));
}

TEST(MergerParity, IdleStretchDoesNotSkipAHealthySequence) {
  // Regression (runtime gap timer): the merger measured the gap timeout
  // from thread start / the last release, so the first out-of-order
  // arrival after an idle stretch longer than the timeout skipped the
  // healthy expected sequence — a gap, then a late_discard when it came.
  rt::MergerFaultConfig fault;
  fault.enabled = true;
  fault.gap_timeout = millis(300);
  RtMergerHarness rt(2, fault, DeliveryMode::kGapSkip, false);
  std::this_thread::sleep_for(std::chrono::milliseconds(450));
  rt.send({1, 1});  // e + 1 first...
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  rt.send({0, 0});  // ...then e, well inside the timeout
  EXPECT_EQ(rt.await(Counters{2, 0, 0, 0}), (Counters{2, 0, 0, 0}));
  rt.finish();
  EXPECT_EQ(rt.counters(), (Counters{2, 0, 0, 0}));
}

}  // namespace
}  // namespace slb
