// Discrete-event simulation engine.
//
// The simulator substitutes for the paper's physical testbed: virtual time
// advances event-to-event, so a "600 second" experiment completes in
// milliseconds-to-seconds of wall clock while preserving every queueing
// phenomenon the paper relies on (back pressure, drafting, rare blocking).
//
// Determinism: events fire in (time, insertion-sequence) order, and no
// entity reads a wall clock, so identical configurations replay
// identically.
//
// Queue. A region schedules nearly all of its events at a few fixed
// delays (send pacing, the wire, the service time), so events live in
// kLanes FIFO lanes plus a binary heap:
//  - A lane holds the events of one delay d = t - now(). now() never
//    decreases and seq always increases, so appending keeps a lane sorted
//    by (time, seq): scheduling into a lane is an O(1) push, no sift.
//  - A delay owns a lane from the moment it claims one until another
//    delay re-claims that lane after it has emptied. A delay without a
//    lane claims a free (empty) one only if it is among the last kLanes
//    delays sent to the heap, so one-off delays stay in the heap and a
//    stream of random delays does not churn the lanes.
//  - Everything else goes to the heap, keyed on (time, seq).
// The next event is the least (time, seq) among the heap's top and the
// fronts of the non-empty lanes (a bitmask). Each busy lane's front key
// is cached in two arrays, written when the lane becomes non-empty and on
// each pop, so the search compares contiguous keys and reads no ring. seq
// is unique, so this is exactly the insertion-sequence order above,
// whichever container holds an event: the lanes change what an event
// costs, never when it fires.
//
// Storage. Scheduling an event allocates nothing once the engine has
// warmed up. Every callable is constructed in place in a fixed inline
// buffer, beside a pointer to its type's fire / relocate / destroy
// operations:
//  - A lane event lives in its lane: the lane is a ring of 64-byte cells
//    {time, seq, ops, buffer}, and schedule_at picks the lane before it
//    constructs the callable straight into the ring's next cell. A ring
//    starts at 16 cells and doubles when full, relocating its callables.
//  - A heap event's callable lives in a slot of a recycled slab (freed
//    slots form a LIFO free list threaded through the slab), and the heap
//    holds only 24-byte {time, seq, slot} entries, so a sift moves three
//    words, never a callable.
//
// Firing. step() unlinks the earliest event (pops its lane cell, or pops
// its heap entry and frees its slot) and then calls the fire operation,
// which moves the callable out of the unlinked buffer and only then
// invokes the local copy. The buffer's memory stays untouched until the
// next schedule_at, and an event may schedule events that grow its own
// lane or the slab, relocating every pending callable: no reference into
// a ring or the slab is live across the call.
//
// Inline size. A callable larger than kInlineBytes does not compile; there
// is no heap fallback. The buffer fits the largest callable scheduled
// anywhere in the tree: a std::function<void()>, and the channel's and
// worker's [this, tuple, epoch] lambdas (32 bytes each). Callables must
// be nothrow-move-constructible; move-only ones are fine. A throwing
// construction schedules nothing.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/time.h"

namespace slb::sim {

class Simulator {
 public:
  /// Capacity of a callable's inline buffer; see the header comment.
  static constexpr std::size_t kInlineBytes = 32;
  /// Number of fixed-delay FIFO lanes; see the header comment.
  static constexpr int kLanes = 8;

  Simulator() {
    delay_.fill(kUnclaimed);
    missed_.fill(kUnclaimed);
  }
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  TimeNs now() const { return now_; }

  /// Schedules `fn` at absolute virtual time `t >= now()`.
  template <class F>
  void schedule_at(TimeNs t, F&& fn) {
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kInlineBytes,
                  "event callable exceeds Simulator::kInlineBytes");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "event callable is over-aligned");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "event callable must be nothrow-move-constructible");
    static_assert(std::is_invocable_v<Fn&>, "event callable takes no args");
    assert(t >= now_);
    const int k = lane_for(t - now_);
    if (k == kHeap) {
      if (free_ == kNoSlot) grow();
      Slot& s = slab_[free_];
      // A throwing construction leaves the slot on the free list.
      ::new (static_cast<void*>(s.buf)) Fn(std::forward<F>(fn));
      s.ops = &kOps<Fn>;
      const std::uint32_t slot = free_;
      free_ = s.next_free;
      heap_.push_back(Entry{t, next_seq_++, slot});
      std::push_heap(heap_.begin(), heap_.end(), Later{});
      return;
    }
    Lane& lane = lanes_[static_cast<std::size_t>(k)];
    Cell& c = lane.next();
    // A throwing construction leaves the cell outside the lane.
    ::new (static_cast<void*>(c.buf)) Fn(std::forward<F>(fn));
    c.ops = &kOps<Fn>;
    c.time = t;
    c.seq = next_seq_++;
    if (lane.size++ == 0) {
      front_time_[static_cast<std::size_t>(k)] = t;
      front_seq_[static_cast<std::size_t>(k)] = c.seq;
      busy_ |= 1u << k;
    }
  }

  /// Schedules `fn` after a non-negative delay.
  template <class F>
  void schedule_after(DurationNs delay, F&& fn) {
    assert(delay >= 0);
    schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Runs the next event. Returns false when the queue is empty.
  bool step() {
    const int from = earliest();
    if (from == kNone) return false;
    fire_from(from);
    return true;
  }

  /// Runs events until virtual time would pass `deadline` (events at
  /// exactly `deadline` are executed).
  void run_until(TimeNs deadline) {
    for (int from = earliest(); from != kNone && front_time(from) <= deadline;
         from = earliest()) {
      fire_from(from);
    }
    if (now_ < deadline) now_ = deadline;
  }

  /// Runs until `stop()` is called from within an event, the deadline
  /// passes, or the queue drains.
  void run_while(TimeNs deadline) {
    stop_requested_ = false;
    for (int from = earliest();
         !stop_requested_ && from != kNone && front_time(from) <= deadline;
         from = earliest()) {
      fire_from(from);
    }
    if (!stop_requested_ && now_ < deadline) now_ = deadline;
  }

  /// Requests run_while to return after the current event.
  void stop() { stop_requested_ = true; }

  std::uint64_t events_processed() const { return events_processed_; }
  bool idle() const { return heap_.empty() && busy_ == 0; }

 private:
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;
  // lane_for()'s and earliest()'s answers besides a lane index.
  static constexpr int kHeap = kLanes;
  static constexpr int kNone = -1;
  // Delay label of a lane no delay has claimed yet (delays are >= 0).
  static constexpr DurationNs kUnclaimed = -1;

  // The operations of one callable type, shared by all its buffers.
  struct Ops {
    void (*fire)(void* buf);  // moves the callable out, then invokes it
    void (*relocate)(void* dst, void* src) noexcept;  // and destroys src
    void (*destroy)(void* p) noexcept;
  };

  template <class Fn>
  static Fn* stored(void* p) {
    return std::launder(static_cast<Fn*>(p));
  }

  template <class Fn>
  static constexpr Ops kOps{
      [](void* buf) {
        Fn* held = stored<Fn>(buf);
        Fn fn(std::move(*held));
        held->~Fn();
        fn();  // may reuse or relocate `buf`: it is dead from here on
      },
      [](void* dst, void* src) noexcept {
        Fn* from = stored<Fn>(src);
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      },
      [](void* p) noexcept { stored<Fn>(p)->~Fn(); }};

  // One slab cell of a heap event. Moving a slot relocates the callable it
  // holds, so the slab may grow while events are pending; destroying a
  // slot releases a callable still pending when the Simulator dies.
  struct Slot {
    alignas(std::max_align_t) unsigned char buf[kInlineBytes];
    const Ops* ops = nullptr;  // null while the slot is free
    std::uint32_t next_free = kNoSlot;

    Slot() = default;
    Slot(Slot&& o) noexcept : ops(o.ops), next_free(o.next_free) {
      if (ops != nullptr) {
        ops->relocate(buf, o.buf);
        o.ops = nullptr;
      }
    }
    Slot& operator=(Slot&&) = delete;
    ~Slot() {
      if (ops != nullptr) ops->destroy(buf);
    }
  };

  struct Entry {
    TimeNs time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static_assert(sizeof(Entry) == 24);

  // Heap comparator: the top is the earliest (time, seq).
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  // One pending lane event, a cache line. Only the cells in a lane's
  // [head, head + size) hold a live callable.
  struct alignas(64) Cell {
    TimeNs time;
    std::uint64_t seq;
    const Ops* ops;
    alignas(std::max_align_t) unsigned char buf[kInlineBytes];
  };
  static_assert(sizeof(Cell) == 64);

  // A ring buffer of cells, sorted because they share one delay. The
  // storage is allocated on the first push and doubles when full; the
  // lane destroys the callables still pending in it.
  struct Lane {
    std::unique_ptr<Cell[]> ring;
    std::uint32_t mask = 0;  // capacity - 1; capacity is a power of two
    std::uint32_t head = 0;
    std::uint32_t size = 0;

    Lane() = default;
    Lane(const Lane&) = delete;
    Lane& operator=(const Lane&) = delete;
    ~Lane() {
      for (std::uint32_t i = 0; i < size; ++i) {
        Cell& c = ring[(head + i) & mask];
        c.ops->destroy(c.buf);
      }
    }

    Cell& front() { return ring[head]; }
    // The cell past the back, where the next event is constructed; the
    // caller increments size once it holds one.
    Cell& next() {
      if (ring == nullptr || size > mask) grow();
      return ring[(head + size) & mask];
    }
    void pop() {
      head = (head + 1) & mask;
      --size;
    }
    void grow() {
      const std::uint32_t cap = ring == nullptr ? 16 : 2 * (mask + 1);
      std::unique_ptr<Cell[]> bigger(new Cell[cap]);
      for (std::uint32_t i = 0; i < size; ++i) {
        Cell& from = ring[(head + i) & mask];
        Cell& to = bigger[i];
        to.time = from.time;
        to.seq = from.seq;
        to.ops = from.ops;
        from.ops->relocate(to.buf, from.buf);
      }
      ring = std::move(bigger);
      mask = cap - 1;
      head = 0;
    }
  };

  // The lane that delay `d` schedules into, or kHeap; see the header
  // comment for the claim rule. Records a heap-bound delay as a miss.
  int lane_for(DurationNs d) {
    for (int k = 0; k < kLanes; ++k) {
      if (delay_[static_cast<std::size_t>(k)] == d) return k;
    }
    const std::uint32_t free_lanes = ~busy_ & ((1u << kLanes) - 1);
    if (free_lanes != 0 &&
        std::find(missed_.begin(), missed_.end(), d) != missed_.end()) {
      const int k = std::countr_zero(free_lanes);
      delay_[static_cast<std::size_t>(k)] = d;
      return k;
    }
    missed_[next_miss_++ % kLanes] = d;
    return kHeap;
  }

  // The source of the earliest pending event: a lane index, kHeap, or
  // kNone when nothing is pending.
  int earliest() const {
    int from = kNone;
    TimeNs best_time = 0;
    std::uint64_t best_seq = 0;
    if (!heap_.empty()) {
      from = kHeap;
      best_time = heap_.front().time;
      best_seq = heap_.front().seq;
    }
    for (std::uint32_t m = busy_; m != 0; m &= m - 1) {
      const int k = std::countr_zero(m);
      const TimeNs t = front_time_[static_cast<std::size_t>(k)];
      const std::uint64_t s = front_seq_[static_cast<std::size_t>(k)];
      if (from == kNone || t < best_time || (t == best_time && s < best_seq)) {
        from = k;
        best_time = t;
        best_seq = s;
      }
    }
    return from;
  }

  TimeNs front_time(int from) const {
    return from == kHeap ? heap_.front().time
                         : front_time_[static_cast<std::size_t>(from)];
  }

  // Unlinks the front event of `from` and fires it.
  void fire_from(int from) {
    void* buf = nullptr;
    const Ops* ops = nullptr;
    if (from == kHeap) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      const Entry top = heap_.back();
      heap_.pop_back();
      Slot& s = slab_[top.slot];
      now_ = top.time;
      ops = s.ops;
      buf = s.buf;
      s.ops = nullptr;
      s.next_free = free_;
      free_ = top.slot;
    } else {
      const auto k = static_cast<std::size_t>(from);
      Lane& lane = lanes_[k];
      Cell& c = lane.front();
      now_ = c.time;
      ops = c.ops;
      buf = c.buf;
      lane.pop();
      if (lane.size == 0) {
        busy_ &= ~(1u << from);
      } else {
        const Cell& next = lane.front();
        front_time_[k] = next.time;
        front_seq_[k] = next.seq;
      }
    }
    ++events_processed_;
    ops->fire(buf);
  }

  void grow() {
    slab_.emplace_back();
    free_ = static_cast<std::uint32_t>(slab_.size() - 1);
  }

  std::vector<Entry> heap_;
  std::vector<Slot> slab_;  // heap events' callables
  std::uint32_t free_ = kNoSlot;
  std::array<Lane, kLanes> lanes_{};
  // Lane k's front (time, seq), valid while bit k of busy_ is set.
  std::array<TimeNs, kLanes> front_time_{};
  std::array<std::uint64_t, kLanes> front_seq_{};
  std::uint32_t busy_ = 0;  // bit k set <=> lane k is non-empty
  std::array<DurationNs, kLanes> delay_;   // lane k's delay, or kUnclaimed
  std::array<DurationNs, kLanes> missed_;  // the last kLanes misses, a ring
  std::uint32_t next_miss_ = 0;
  TimeNs now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  bool stop_requested_ = false;
};

}  // namespace slb::sim
