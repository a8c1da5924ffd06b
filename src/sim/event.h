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
// Storage. Scheduling an event allocates nothing once the engine has
// warmed up:
//  - The callable is constructed in place in a slot of a recycled slab.
//    A slot is a fixed inline buffer plus a pointer to the callable
//    type's fire / relocate / destroy operations; freed slots form a LIFO
//    free list threaded through the slab.
//  - The queue holds only 24-byte {time, seq, slot} entries, so ordering
//    moves three words, never a callable.
//
// Queue. A region schedules nearly all of its events at a few fixed
// delays (send pacing, the wire, the service time), so the entries live
// in kLanes FIFO lanes plus a binary heap:
//  - A lane holds the entries of one delay d = t - now(). now() never
//    decreases and seq always increases, so appending keeps a lane sorted
//    by (time, seq): scheduling into a lane is an O(1) push, no sift.
//  - A delay owns a lane from the moment it claims one until another
//    delay re-claims that lane after it has emptied. A delay without a
//    lane claims a free (empty) one only if it is among the last kLanes
//    delays sent to the heap, so one-off delays stay in the heap and a
//    stream of random delays does not churn the lanes.
//  - Everything else goes to the heap, keyed on (time, seq).
// The next event is the least (time, seq) among the heap's top and the
// fronts of the non-empty lanes (a bitmask). seq is unique, so this is
// exactly the insertion-sequence order above, whichever container holds
// an entry: the lanes change what an event costs, never when it fires.
//
// Firing. step() removes the earliest entry and calls the slot's fire
// operation, which moves the callable out of its slot, frees the slot and
// only then invokes the local copy: an event may schedule events and grow
// the slab, which relocates every pending callable, so no reference into
// the slab is live across the call.
//
// Inline size. A callable larger than kInlineBytes does not compile; there
// is no heap fallback. The buffer fits the largest callable scheduled
// anywhere in the tree: a std::function<void()>, and the channel's and
// worker's [this, tuple, epoch] lambdas (32 bytes each). Callables must
// be nothrow-move-constructible; move-only ones are fine.
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
  /// Capacity of a slot's inline buffer; see the header comment.
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
    if (free_ == kNoSlot) grow();
    Slot& s = slab_[free_];
    // A throwing construction leaves the slot on the free list.
    ::new (static_cast<void*>(s.buf)) Fn(std::forward<F>(fn));
    s.ops = &kOps<Fn>;
    const std::uint32_t slot = free_;
    free_ = s.next_free;
    enqueue(Entry{t, next_seq_++, slot});
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
    for (int from = earliest(); from != kNone && front(from).time <= deadline;
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
         !stop_requested_ && from != kNone && front(from).time <= deadline;
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
  // earliest()'s answers besides a lane index.
  static constexpr int kHeap = kLanes;
  static constexpr int kNone = -1;
  // Delay label of a lane no delay has claimed yet (delays are >= 0).
  static constexpr DurationNs kUnclaimed = -1;

  // The operations of one callable type, shared by all its slots.
  struct Ops {
    void (*fire)(Simulator& sim, std::uint32_t slot);
    void (*relocate)(void* dst, void* src) noexcept;  // and destroys src
    void (*destroy)(void* p) noexcept;
  };

  template <class Fn>
  static Fn* stored(void* p) {
    return std::launder(static_cast<Fn*>(p));
  }

  template <class Fn>
  static void fire(Simulator& sim, std::uint32_t slot) {
    Slot& s = sim.slab_[slot];
    Fn* held = stored<Fn>(s.buf);
    Fn fn(std::move(*held));
    held->~Fn();
    s.ops = nullptr;
    s.next_free = sim.free_;
    sim.free_ = slot;
    fn();  // may grow the slab: `s` is dead from here on
  }

  template <class Fn>
  static constexpr Ops kOps{
      &fire<Fn>,
      [](void* dst, void* src) noexcept {
        Fn* from = stored<Fn>(src);
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      },
      [](void* p) noexcept { stored<Fn>(p)->~Fn(); }};

  // One slab cell. Moving a cell relocates the callable it holds, so the
  // slab may grow while events are pending; destroying a cell releases a
  // callable still pending when the Simulator dies.
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

  static bool earlier(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  // Heap comparator: the top is the earliest (time, seq).
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return earlier(b, a);
    }
  };

  // A ring buffer of entries, sorted because they share one delay. The
  // storage is allocated on the first push and doubles when full.
  struct Lane {
    std::unique_ptr<Entry[]> ring;
    std::uint32_t mask = 0;  // capacity - 1; capacity is a power of two
    std::uint32_t head = 0;
    std::uint32_t size = 0;

    const Entry& front() const { return ring[head]; }
    void push(const Entry& e) {
      if (ring == nullptr || size > mask) grow();
      ring[(head + size) & mask] = e;
      ++size;
    }
    void pop() {
      head = (head + 1) & mask;
      --size;
    }
    void grow() {
      const std::uint32_t cap = ring == nullptr ? 16 : 2 * (mask + 1);
      auto bigger = std::make_unique<Entry[]>(cap);
      for (std::uint32_t i = 0; i < size; ++i) {
        bigger[i] = ring[(head + i) & mask];
      }
      ring = std::move(bigger);
      mask = cap - 1;
      head = 0;
    }
  };

  void enqueue(const Entry& e) {
    const DurationNs d = e.time - now_;
    for (int k = 0; k < kLanes; ++k) {
      if (delay_[static_cast<std::size_t>(k)] == d) return push_lane(k, e);
    }
    const std::uint32_t free_lanes = ~busy_ & ((1u << kLanes) - 1);
    if (free_lanes != 0 &&
        std::find(missed_.begin(), missed_.end(), d) != missed_.end()) {
      const int k = std::countr_zero(free_lanes);
      delay_[static_cast<std::size_t>(k)] = d;
      return push_lane(k, e);
    }
    missed_[next_miss_++ % kLanes] = d;
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  void push_lane(int k, const Entry& e) {
    lanes_[static_cast<std::size_t>(k)].push(e);
    busy_ |= 1u << k;
  }

  // The source of the earliest pending entry: a lane index, kHeap, or
  // kNone when nothing is pending.
  int earliest() const {
    int from = heap_.empty() ? kNone : kHeap;
    const Entry* best = heap_.empty() ? nullptr : &heap_.front();
    for (std::uint32_t m = busy_; m != 0; m &= m - 1) {
      const int k = std::countr_zero(m);
      const Entry& e = lanes_[static_cast<std::size_t>(k)].front();
      if (best == nullptr || earlier(e, *best)) {
        best = &e;
        from = k;
      }
    }
    return from;
  }

  const Entry& front(int from) const {
    return from == kHeap ? heap_.front()
                         : lanes_[static_cast<std::size_t>(from)].front();
  }

  // Removes the front entry of `from` and fires it.
  void fire_from(int from) {
    Entry top{};
    if (from == kHeap) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      top = heap_.back();
      heap_.pop_back();
    } else {
      Lane& lane = lanes_[static_cast<std::size_t>(from)];
      top = lane.front();
      lane.pop();
      if (lane.size == 0) busy_ &= ~(1u << from);
    }
    now_ = top.time;
    ++events_processed_;
    slab_[top.slot].ops->fire(*this, top.slot);
  }

  void grow() {
    slab_.emplace_back();
    free_ = static_cast<std::uint32_t>(slab_.size() - 1);
  }

  std::vector<Entry> heap_;
  std::array<Lane, kLanes> lanes_{};
  std::array<DurationNs, kLanes> delay_;   // lane k's delay, or kUnclaimed
  std::array<DurationNs, kLanes> missed_;  // the last kLanes misses, a ring
  std::uint32_t next_miss_ = 0;
  std::uint32_t busy_ = 0;  // bit k set <=> lane k is non-empty
  std::vector<Slot> slab_;
  std::uint32_t free_ = kNoSlot;
  TimeNs now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  bool stop_requested_ = false;
};

}  // namespace slb::sim
