// Bounded FIFO used for the simulated channel buffers: the splitter-side
// TCP send buffer and the worker-side receive buffer (the merger's reorder
// queues live in delivery::ReleaseCore). Bounded buffers are what create
// back pressure — and with it, the blocking signal the paper exploits.
#pragma once

#include <cassert>
#include <cstddef>
#include <deque>

namespace slb::sim {

template <typename T>
class BoundedFifo {
 public:
  explicit BoundedFifo(std::size_t capacity) : capacity_(capacity) {
    assert(capacity > 0);
  }

  bool full() const { return items_.size() >= capacity_; }
  bool empty() const { return items_.empty(); }
  std::size_t size() const { return items_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::size_t free_slots() const { return capacity_ - items_.size(); }

  /// Pushes one item; caller must check `!full()` first.
  void push(T item) {
    assert(!full());
    items_.push_back(std::move(item));
  }

  /// Non-asserting push; returns false when full.
  bool try_push(T item) {
    if (full()) return false;
    items_.push_back(std::move(item));
    return true;
  }

  const T& front() const {
    assert(!empty());
    return items_.front();
  }

  T pop() {
    assert(!empty());
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

 private:
  std::size_t capacity_;
  std::deque<T> items_;
};

}  // namespace slb::sim
