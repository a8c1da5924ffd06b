// The in-order merger at the back of a parallel region (paper Section 4.1).
//
// Sequential semantics: tuples must leave the region in splitter send
// order. Each connection has a bounded FIFO of processed-but-unreleased
// tuples; the merger emits the tuple whose sequence number is next, no
// matter how many tuples from faster connections sit queued behind a slow
// one. Those bounded queues propagate back pressure to the workers — the
// merger is why per-connection throughput carries no load information
// (Section 4.3) and why the whole region is gated by its slowest worker.
//
// The sequencing state machine is delivery::ReleaseCore, shared with the
// runtime's merger PE; this adapter adds the simulator's side: event
// scheduling, worker un-stall callbacks, downstream back pressure, the
// coalesced ack hop, and the unordered (parallel sinks) mode.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "delivery/delivery.h"
#include "delivery/release_core.h"
#include "obs/metrics.h"
#include "sim/event.h"
#include "sim/sink.h"
#include "sim/tuple.h"
#include "util/time.h"

namespace slb::sim {

class Merger : public TupleSink {
 public:
  /// Effectively-unbounded reorder queues: the eager-reading merger of the
  /// paper's implementation (blocking happens at the splitter, not here).
  static constexpr std::size_t kUnbounded = std::size_t{1} << 40;

  /// @param metrics registry the merger registers its "merger.*" metrics
  ///   in (DESIGN.md §8): its own "emitted", "reorder_depth" and
  ///   "gap_wait_ns", and through its release core "gaps",
  ///   "dup_discards" and "late_discards". The merger is their only
  ///   writer; the registry must outlive it.
  /// @param connections number of worker connections feeding the merger.
  /// @param capacity per-connection reorder-queue capacity in tuples.
  /// @param ordered when false the region ends in parallel sinks (the
  ///   paper's Section 4.1 footnote): tuples are released immediately in
  ///   arrival order with no sequence gating. Per-connection throughput
  ///   then becomes a meaningful signal again — see Section 4.3.
  /// @param mode how an ordered merger accounts stale arrivals (sequence
  ///   below the release cursor): dup_discards under at-least-once (an
  ///   expected replay echo, which also arms the replay pool),
  ///   late_discards under GapSkip (a tuple outliving its declared gap).
  ///   Either way the tuple is dropped and strict order is preserved.
  Merger(Simulator* sim, obs::MetricsRegistry& metrics, int connections,
         std::size_t capacity, bool ordered = true,
         delivery::DeliveryMode mode = delivery::DeliveryMode::kGapSkip);

  /// Called when connection j's reorder queue frees at least one slot
  /// after an offer from j was refused; used to un-stall worker j, which
  /// holds the refused tuple. Invoked as a zero-delay event, at most once
  /// per refusal: a connection that was not refused since its last wake
  /// is not woken (the TupleSink contract needs no more).
  void set_on_space(int j, std::function<void()> fn) override;

  /// TupleSink: workers offer processed tuples here.
  bool offer(int from, Tuple t) override { return try_push(from, t); }

  /// Chains the merger's output into a downstream sink with back
  /// pressure (pipeline composition). Without one, emitted tuples are
  /// only counted/reported via set_on_emit.
  void connect_downstream(TupleSink* downstream);

  /// Called synchronously for every tuple emitted downstream, in sequence
  /// order.
  void set_on_emit(std::function<void(const Tuple&)> fn) {
    on_emit_ = std::move(fn);
  }

  /// Worker j offers a processed tuple. Returns false when j's reorder
  /// queue is full — the worker must hold the tuple and retry when poked.
  bool try_push(int j, Tuple t);

  /// Sequences [first, first + count) will never arrive (died with a
  /// worker, or shed at the source). The merger skips over them instead
  /// of gating forever, preserving prefix order of the survivors; each
  /// skipped sequence is counted as a gap. Called by the region's fault
  /// and shedding handlers.
  void note_lost(std::uint64_t first, std::uint64_t count);

  /// Sequence numbers skipped because their tuples were lost to failures.
  std::uint64_t gaps() const { return core_.gaps(); }

  /// Sequences declared lost (note_lost) but not yet skipped over — the
  /// merger is still gating earlier sequences. Conservation accounting:
  /// sent + shed == emitted + gaps + in_flight + lost_pending holds at
  /// every instant (tests/test_conservation.cc).
  std::uint64_t lost_pending() const { return core_.lost_pending(); }

  // --- Delivery semantics (DESIGN.md §10) ------------------------------

  /// At-least-once reverse hop: after each drain that advances the
  /// release cursor, schedule `fn(expected)` — the cumulative ack — to
  /// fire `latency` later (one coalesced event at a time, modeling the
  /// merger->splitter link).
  void set_on_ack(std::function<void(std::uint64_t)> fn,
                  DurationNs latency);

  /// Replayed duplicates discarded below the release cursor (ALO).
  std::uint64_t dup_discards() const { return core_.dup_discards(); }
  /// Tuples that arrived after their sequence was declared a gap.
  std::uint64_t late_discards() const { return core_.late_discards(); }
  /// Replayed tuples parked in the out-of-order side pool (conservation
  /// accounting: these are in flight but invisible to queue_size).
  std::uint64_t pooled() const { return core_.pooled(); }

  std::uint64_t emitted() const { return emitted_.value(); }
  std::uint64_t expected_seq() const { return core_.expected(); }
  std::size_t queue_size(int j) const { return core_.queue_size(j); }

  /// Tuples released downstream that arrived via connection j.
  std::uint64_t emitted_from(int j) const {
    return emitted_from_[static_cast<std::size_t>(j)];
  }
  /// The same counts for every connection, in connection order.
  std::span<const std::uint64_t> emitted_from() const {
    return emitted_from_;
  }

  bool ordered() const { return ordered_; }

 private:
  using Core = delivery::ReleaseCore<Tuple>;

  void drain();
  /// Delivers one tuple downstream; false when the downstream refuses.
  bool emit(int from, const Tuple& t);
  /// Schedules the coalesced cumulative-ack event if one is due.
  void maybe_schedule_ack();

  Simulator* sim_;
  /// Reorder queues, replay pool, lost set, cursor, ack cursor and the
  /// gap and discard counts.
  Core core_;
  std::vector<std::function<void()>> on_space_;
  /// 1 while connection j owes a wake: an offer from j was refused and
  /// its queue has not freed since.
  std::vector<std::uint8_t> refused_;
  std::function<void(const Tuple&)> on_emit_;
  TupleSink* downstream_ = nullptr;
  std::vector<std::uint64_t> emitted_from_;
  bool ordered_ = true;

  // Registry handles of what only the sim merger counts.
  obs::Counter& emitted_;  // tuples released downstream
  obs::Histogram& reorder_depth_;  // queued tuples at each emit
  obs::Histogram& gap_wait_ns_;  // declared-lost -> skipped delay

  std::function<void(std::uint64_t)> on_ack_;
  DurationNs ack_latency_ = 0;
  bool ack_scheduled_ = false;
};

}  // namespace slb::sim
