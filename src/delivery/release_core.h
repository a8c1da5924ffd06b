// Ordered-release core of the in-order merger (paper §4.1, DESIGN.md §10).
//
// The merger at the back of a parallel region holds one reorder FIFO per
// worker connection and releases tuples strictly by sequence number. This
// class is that state machine, written once and shared by the two
// substrates: sim::Merger (discrete-event) and rt::MergerPe (loopback
// TCP) are thin adapters that feed it arrivals and loss declarations and
// act on what it releases. It does no I/O, reads no clock (callers pass
// `now`) and is single-threaded, so it can be unit-tested and
// model-checked directly (tests/test_release_core.cc). Its only atomics
// are the relaxed single-writer registry handles it publishes its counts
// through (DESIGN.md §8), which other threads may read at any time.
//
// It owns:
//   * the per-connection queues (optionally capacity-bounded) and the
//     release cursor `expected()`;
//   * the at-least-once replay pool: a replay landing on a connection
//     behind newer queued sequences is parked, keyed by sequence, where
//     the head-only release scan can still reach it;
//   * stale-arrival classification: a sequence below the cursor is
//     dropped as a dup_discard under at-least-once (a replay echo) and a
//     late_discard otherwise (a tuple outliving its declared gap);
//   * the lost set: ranges declared never to arrive (crash losses, shed
//     tuples), skipped as gaps when the cursor reaches them;
//   * each connection's floor, below which its stream will never again
//     deliver, and skip_unreachable(): every connection is a FIFO stream,
//     so a sequence below every floor that is not queued is lost. This is
//     how the runtime merger skips what died with a worker, and its
//     end-of-input flush;
//   * the cumulative-ack cursor (adapters decide when to send);
//   * the "merger.gaps", "merger.dup_discards" and "merger.late_discards"
//     counters, which it registers and is the only writer of.
//
// Per-arrival cost does not grow with the connection count: the release
// scan visits only *eligible* connections (queue head at or below the
// cursor), kept in a bitset. Every other connection would be a no-op in a
// full scan, so the visit order, and with it every emit, discard and
// refusal, is that of the plain scan over all connections. A head above
// the cursor waits in a ring of kNear slots indexed by sequence: each
// cursor step visits the one slot it passes, and a slot names the
// connection that filed it, which becomes eligible if that head is still
// its head. A stale slot (the head was popped since) is ignored, and every
// visited slot is cleared, so a slot only ever holds the one window
// sequence that maps to it. A jump of kNear or more sequences re-reads
// every head once instead. Heads kNear or more above the cursor, and a
// second head on a taken slot (an at-least-once duplicate), wait in a
// min-heap (DESIGN.md §10).
//
// Item is either a sequence number or a struct with a `seq` field.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <type_traits>
#include <utility>
#include <vector>

#include "delivery/delivery.h"
#include "obs/metrics.h"
#include "util/time.h"

namespace slb::delivery {

template <typename Item>
class ReleaseCore {
 public:
  static constexpr std::size_t kUnbounded =
      std::numeric_limits<std::size_t>::max();
  /// Width of the near-head window, a power of two: a head fewer than
  /// kNear sequences above the cursor is indexed by its sequence.
  static constexpr std::uint64_t kNear = 1024;

  enum class Offer {
    kAccepted,  // queued or pooled; a release may now make progress
    kStale,     // below the cursor: dropped and counted, nothing to do
    kFull,      // the connection's queue is at capacity: retry later
  };

  /// Registers the merger counts in `metrics`, which must outlive the
  /// core.
  ReleaseCore(obs::MetricsRegistry& metrics, int connections,
              DeliveryMode mode, std::size_t capacity = kUnbounded)
      : queues_(static_cast<std::size_t>(connections)),
        eligible_(words(connections), 0),
        near_(kNear, 0),
        freed_(words(connections), 0),
        floors_(static_cast<std::size_t>(connections), 0),
        capacity_(capacity),
        alo_(mode == DeliveryMode::kAtLeastOnce),
        gaps_(metrics.counter("merger.gaps")),
        dup_discards_(metrics.counter("merger.dup_discards")),
        late_discards_(metrics.counter("merger.late_discards")) {}

  /// Copies would share the registry handles.
  ReleaseCore(const ReleaseCore&) = delete;
  ReleaseCore& operator=(const ReleaseCore&) = delete;

  /// An arrival on connection `from`. Within one connection arrivals
  /// come in send order, so only queue heads can hold the expected
  /// sequence — except under at-least-once, where a replay can land
  /// behind newer sequences; those go to the side pool (a collision
  /// there is a duplicate of a pooled duplicate).
  Offer offer(int from, Item item) {
    const std::uint64_t seq = seq_of(item);
    if (seq < expected_) {
      discard_stale();
      return Offer::kStale;
    }
    auto& q = queues_[static_cast<std::size_t>(from)];
    if (alo_ && !q.empty() && seq < seq_of(q.back())) {
      if (pool_.try_emplace(seq, from, std::move(item)).second) {
        ++queued_;
      } else {
        discard_stale();
      }
      return Offer::kAccepted;
    }
    if (q.size() >= capacity_) return Offer::kFull;
    q.push_back(std::move(item));
    ++queued_;
    raise_floor(from, seq + 1);
    if (q.size() == 1) index_head(static_cast<std::size_t>(from));
    return Offer::kAccepted;
  }

  /// Sequences [first, first + count) will never arrive (they died with
  /// a worker or were shed at the source). Overlapping declarations of
  /// the same first sequence keep the widest count and the earliest
  /// declaration time.
  void note_lost(std::uint64_t first, std::uint64_t count, TimeNs now) {
    if (count == 0 || first + count <= expected_) return;
    auto [it, fresh] = lost_.try_emplace(first, Lost{count, now});
    if (!fresh) it->second.count = std::max(it->second.count, count);
  }

  /// Releases everything the cursor can reach, in sequence order:
  /// declared-lost ranges are skipped (`on_gap(count, declared_at)`),
  /// stale entries are dropped, and each released item goes to
  /// `emit(from, item)`. An emit returning false (downstream refused)
  /// stops the loop with that item still queued.
  template <typename Emit, typename OnGap>
  void release(Emit&& emit, OnGap&& on_gap) {
    bool progressed = true;
    while (progressed) {
      progressed = skip_lost(on_gap);
      while (!pool_.empty() && pool_.begin()->first < expected_) {
        discard_stale();
        pool_.erase(pool_.begin());
        --queued_;
        progressed = true;
      }
      while (!pool_.empty() && pool_.begin()->first == expected_) {
        auto& [from, item] = pool_.begin()->second;
        if (!emit(from, item)) return;
        pool_.erase(pool_.begin());
        --queued_;
        move_cursor(expected_ + 1);
        progressed = true;
      }
      // Connection order, visiting only the connections a full scan would
      // act on; ones made eligible behind j wait for the next pass.
      for (std::size_t j = next_set(eligible_, 0); j < queues_.size();
           j = next_set(eligible_, j + 1)) {
        auto& q = queues_[j];
        while (!q.empty() && seq_of(q.front()) < expected_) {
          discard_stale();
          pop(static_cast<int>(j));
          progressed = true;
        }
        while (!q.empty() && seq_of(q.front()) == expected_) {
          if (!emit(static_cast<int>(j), q.front())) return;
          move_cursor(expected_ + 1);
          pop(static_cast<int>(j));
          progressed = true;
        }
      }
    }
  }

  template <typename Emit>
  void release(Emit&& emit) {
    release(emit, [](std::uint64_t, TimeNs) {});
  }

  /// Connection j's stream will never again carry a sequence below
  /// `floor`. Floors only rise; under GapSkip every queued arrival raises
  /// its connection's floor past itself, and a gap frame's end raises it
  /// too. Under at-least-once a replay may carry any unacked sequence on
  /// any stream, so nothing but close() moves a floor there.
  void raise_floor(int j, std::uint64_t floor) {
    if (alo_) return;
    auto& f = floors_[static_cast<std::size_t>(j)];
    f = std::max(f, floor);
  }

  /// Connection j's stream ended: it will carry nothing more.
  void close(int j) { floors_[static_cast<std::size_t>(j)] = kEnded; }

  /// Connection j carries a fresh stream (a re-admitted worker), which
  /// may hold any sequence from the cursor up.
  void reopen(int j) { floors_[static_cast<std::size_t>(j)] = expected_; }

  /// Moves the cursor to the lowest sequence that can still be released:
  /// the lowest queued or pooled one, or the lowest floor of a stream,
  /// whichever is lower. Everything jumped over can never arrive and is
  /// counted as a gap (declared-lost ranges it passes are dropped, not
  /// counted twice). Returns the number skipped: 0 while a release could
  /// make progress, while an open stream may still carry the cursor, or
  /// when nothing is queued and every stream has ended. Call release()
  /// afterwards.
  std::uint64_t skip_unreachable() {
    // An eligible connection holds a head at or below the cursor.
    if (next_set(eligible_, 0) < queues_.size()) return 0;
    std::uint64_t reach = *std::min_element(floors_.begin(), floors_.end());
    if (!pool_.empty()) reach = std::min(reach, pool_.begin()->first);
    for (const auto& q : queues_) {
      if (!q.empty()) reach = std::min(reach, seq_of(q.front()));
    }
    if (reach == kEnded || reach <= expected_) return 0;
    const std::uint64_t skipped = reach - expected_;
    gaps_.inc(skipped);
    move_cursor(reach);
    return skipped;
  }

  /// Calls `fn(j)` for each connection whose queue lost an entry since
  /// the last call, in connection order, and clears the marks.
  template <typename Fn>
  void take_freed(Fn&& fn) {
    for (std::size_t j = next_set(freed_, 0); j < queues_.size();
         j = next_set(freed_, j + 1)) {
      freed_[j / 64] &= ~bit(j);
      fn(static_cast<int>(j));
    }
  }

  /// Head of connection j's queue (nullptr when empty) and its removal:
  /// for adapters that release without sequence gating (parallel sinks).
  const Item* head(int j) const {
    const auto& q = queues_[static_cast<std::size_t>(j)];
    return q.empty() ? nullptr : &q.front();
  }
  void pop(int j) {
    const auto ju = static_cast<std::size_t>(j);
    queues_[ju].pop_front();
    freed_[ju / 64] |= bit(ju);
    --queued_;
    index_head(ju);
  }

  /// Cumulative ack: releases not yet acknowledged, and taking them.
  std::uint64_t unacked() const { return expected_ - acked_; }
  std::uint64_t take_ack() { return acked_ = expected_; }

  /// The release cursor: every sequence below it was emitted or skipped.
  std::uint64_t expected() const { return expected_; }
  std::uint64_t gaps() const { return gaps_.value(); }
  std::uint64_t dup_discards() const { return dup_discards_.value(); }
  std::uint64_t late_discards() const { return late_discards_.value(); }
  /// Items held in the queues and the replay pool.
  std::size_t queued() const { return queued_; }
  std::size_t queue_size(int j) const {
    return queues_[static_cast<std::size_t>(j)].size();
  }
  std::size_t pooled() const { return pool_.size(); }
  /// Declared-lost sequences the cursor has not reached yet.
  std::uint64_t lost_pending() const {
    std::uint64_t pending = 0;
    std::uint64_t covered = expected_;
    for (const auto& [first, lost] : lost_) {
      const std::uint64_t end = first + lost.count;
      if (end <= covered) continue;
      pending += end - std::max(first, covered);
      covered = end;
    }
    return pending;
  }

 private:
  static constexpr std::uint64_t kEnded =
      std::numeric_limits<std::uint64_t>::max();

  struct Lost {
    std::uint64_t count;
    TimeNs declared_at;
  };

  /// A (head sequence, connection) entry of the min-heap `heads_`.
  using Head = std::pair<std::uint64_t, std::size_t>;
  /// Heap order for `heads_`: lowest sequence on top, then lowest
  /// connection.
  struct HeadAfter {
    bool operator()(const Head& a, const Head& b) const {
      return a.first != b.first ? a.first > b.first : a.second > b.second;
    }
  };

  /// One connection's FIFO: a power-of-two ring that doubles when full.
  /// Popped items are not destroyed, only overwritten.
  class Ring {
   public:
    static_assert(std::is_trivially_copyable_v<Item>);
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    const Item& front() const { return buf_[head_]; }
    const Item& back() const { return buf_[(head_ + size_ - 1) & mask()]; }
    void push_back(const Item& item) {
      if (size_ == buf_.size()) grow();
      buf_[(head_ + size_++) & mask()] = item;
    }
    void pop_front() {
      head_ = (head_ + 1) & mask();
      --size_;
    }

   private:
    std::size_t mask() const { return buf_.size() - 1; }
    void grow() {
      std::vector<Item> bigger(std::max<std::size_t>(4, 2 * buf_.size()));
      for (std::size_t i = 0; i < size_; ++i) {
        bigger[i] = buf_[(head_ + i) & mask()];
      }
      buf_.swap(bigger);
      head_ = 0;
    }

    std::vector<Item> buf_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };

  static std::size_t words(int connections) {
    return (static_cast<std::size_t>(connections) + 63) / 64;
  }
  static std::uint64_t bit(std::size_t j) {
    return std::uint64_t{1} << (j % 64);
  }

  /// Lowest set index >= `from` in `set`, or the connection count.
  std::size_t next_set(const std::vector<std::uint64_t>& set,
                       std::size_t from) const {
    std::size_t w = from / 64;
    if (w >= set.size()) return queues_.size();
    std::uint64_t bits = set[w] & (~std::uint64_t{0} << (from % 64));
    while (bits == 0) {
      if (++w == set.size()) return queues_.size();
      bits = set[w];
    }
    return w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
  }

  /// Connection j's head changed (it was pushed onto an empty queue or
  /// popped): mark j eligible when the head is at or below the cursor,
  /// otherwise file it in its near slot or, when that is out of reach or
  /// taken, in the heap until the cursor reaches it. What was filed for
  /// the previous head, if anything, goes stale.
  void index_head(std::size_t j) {
    const auto& q = queues_[j];
    if (!q.empty() && seq_of(q.front()) <= expected_) {
      mark(j);
      return;
    }
    eligible_[j / 64] &= ~bit(j);
    if (q.empty()) return;
    const std::uint64_t s = seq_of(q.front());
    if (s - expected_ < kNear) {
      std::uint32_t& slot = near_slot(s);
      if (slot == 0) {
        slot = static_cast<std::uint32_t>(j + 1);
        return;
      }
    }
    heads_.emplace_back(s, j);
    std::push_heap(heads_.begin(), heads_.end(), HeadAfter{});
    // Stale entries pile up only when heads above the cursor are popped
    // (the ungated head/pop path); rebuild before they outnumber the
    // live ones.
    if (heads_.size() > 2 * queues_.size() + 64) rebuild_heads();
  }

  void mark(std::size_t j) { eligible_[j / 64] |= bit(j); }

  /// Whether connection j's current head is sequence s.
  bool head_is(std::size_t j, std::uint64_t s) const {
    const auto& q = queues_[j];
    return !q.empty() && seq_of(q.front()) == s;
  }

  std::uint32_t& near_slot(std::uint64_t s) { return near_[s & (kNear - 1)]; }

  /// Re-files in the heap every head above the cursor that its near slot
  /// does not hold.
  void rebuild_heads() {
    heads_.clear();
    for (std::size_t j = 0; j < queues_.size(); ++j) {
      const auto& q = queues_[j];
      if (q.empty() || seq_of(q.front()) <= expected_) continue;
      const std::uint64_t s = seq_of(q.front());
      if (s - expected_ >= kNear || near_slot(s) != j + 1) {
        heads_.emplace_back(s, j);
      }
    }
    std::make_heap(heads_.begin(), heads_.end(), HeadAfter{});
  }

  /// Moves the cursor up to `to`: the heads it reaches become eligible.
  void move_cursor(std::uint64_t to) {
    const std::uint64_t from = expected_;
    expected_ = to;
    if (to - from < kNear) {
      // Each slot passed holds, if anything, the sequence passed there.
      for (std::uint64_t s = from + 1; s <= to; ++s) {
        std::uint32_t& slot = near_slot(s);
        if (slot == 0) continue;
        if (head_is(slot - 1, s)) mark(slot - 1);
        slot = 0;
      }
    } else {
      // The jump passed the whole window.
      std::fill(near_.begin(), near_.end(), 0);
      for (std::size_t j = 0; j < queues_.size(); ++j) {
        const auto& q = queues_[j];
        if (!q.empty() && seq_of(q.front()) <= to) mark(j);
      }
    }
    while (!heads_.empty() && heads_.front().first <= to) {
      const Head h = heads_.front();
      std::pop_heap(heads_.begin(), heads_.end(), HeadAfter{});
      heads_.pop_back();
      if (head_is(h.second, h.first)) mark(h.second);
    }
  }

  static std::uint64_t seq_of(const Item& item) {
    if constexpr (std::is_integral_v<Item>) {
      return item;
    } else {
      return item.seq;
    }
  }

  void discard_stale() {
    (alo_ ? dup_discards_ : late_discards_).inc();
  }

  /// Skips the declared-lost ranges the cursor has reached.
  template <typename OnGap>
  bool skip_lost(OnGap& on_gap) {
    bool skipped = false;
    for (;;) {
      auto it = lost_.upper_bound(expected_);
      if (it == lost_.begin()) return skipped;
      --it;
      const std::uint64_t end = it->first + it->second.count;
      if (end > expected_) {
        on_gap(end - expected_, it->second.declared_at);
        gaps_.inc(end - expected_);
        move_cursor(end);
        skipped = true;
      }
      lost_.erase(it);
    }
  }

  std::vector<Ring> queues_;
  /// Bitset of connections whose head is at or below the cursor.
  std::vector<std::uint64_t> eligible_;
  /// Near-head window: slot s % kNear holds connection + 1 for a head s
  /// in (cursor, cursor + kNear), or 0. An entry is live while it matches
  /// the connection's current head.
  std::vector<std::uint32_t> near_;
  /// Min-heap of (head, connection) for the other heads above the cursor;
  /// an entry is live while it matches the connection's current head.
  std::vector<Head> heads_;
  /// Sequence -> (source connection, item) for out-of-order replays.
  std::map<std::uint64_t, std::pair<int, Item>> pool_;
  /// First sequence -> declared-lost range.
  std::map<std::uint64_t, Lost> lost_;
  /// Bitset of connections whose queue lost an entry (take_freed).
  std::vector<std::uint64_t> freed_;
  /// Per connection: no sequence below it will arrive there (kEnded once
  /// the stream has ended).
  std::vector<std::uint64_t> floors_;
  std::size_t capacity_;
  bool alo_;
  std::size_t queued_ = 0;
  std::uint64_t expected_ = 0;
  std::uint64_t acked_ = 0;
  // The published counts: each lives only in its registry handle.
  obs::Counter& gaps_;
  obs::Counter& dup_discards_;
  obs::Counter& late_discards_;
};

}  // namespace slb::delivery
