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
//  - The binary heap holds only 24-byte {time, seq, slot} entries, so a
//    sift moves three words, never a callable.
// The heap is keyed on the same (time, seq) pair as a queue of whole
// events would be, and seq is unique, so the firing order is exactly the
// insertion-sequence order above; the slot index plays no part in it.
//
// Firing. step() pops the top entry and calls the slot's fire operation,
// which moves the callable out of its slot, frees the slot and only then
// invokes the local copy: an event may schedule events and grow the slab,
// which relocates every pending callable, so no reference into the slab
// is live across the call.
//
// Inline size. A callable larger than kInlineBytes does not compile; there
// is no heap fallback. The buffer fits the largest callable scheduled
// anywhere in the tree: a std::function<void()>, and the channel's and
// worker's [this, tuple, epoch] lambdas (32 bytes each). Callables must
// be nothrow-move-constructible; move-only ones are fine.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
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

  Simulator() = default;
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
    heap_.push_back(Entry{t, next_seq_++, slot});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  /// Schedules `fn` after a non-negative delay.
  template <class F>
  void schedule_after(DurationNs delay, F&& fn) {
    assert(delay >= 0);
    schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Runs the next event. Returns false when the queue is empty.
  bool step() {
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Entry top = heap_.back();
    heap_.pop_back();
    now_ = top.time;
    ++events_processed_;
    slab_[top.slot].ops->fire(*this, top.slot);
    return true;
  }

  /// Runs events until virtual time would pass `deadline` (events at
  /// exactly `deadline` are executed).
  void run_until(TimeNs deadline) {
    while (!heap_.empty() && heap_.front().time <= deadline) step();
    if (now_ < deadline) now_ = deadline;
  }

  /// Runs until `stop()` is called from within an event, the deadline
  /// passes, or the queue drains.
  void run_while(TimeNs deadline) {
    stop_requested_ = false;
    while (!stop_requested_ && !heap_.empty() &&
           heap_.front().time <= deadline) {
      step();
    }
    if (!stop_requested_ && now_ < deadline) now_ = deadline;
  }

  /// Requests run_while to return after the current event.
  void stop() { stop_requested_ = true; }

  std::uint64_t events_processed() const { return events_processed_; }
  bool idle() const { return heap_.empty(); }

 private:
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

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

  // Heap comparator: the top is the earliest (time, seq).
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  void grow() {
    slab_.emplace_back();
    free_ = static_cast<std::uint32_t>(slab_.size() - 1);
  }

  std::vector<Entry> heap_;
  std::vector<Slot> slab_;
  std::uint32_t free_ = kNoSlot;
  TimeNs now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  bool stop_requested_ = false;
};

}  // namespace slb::sim
