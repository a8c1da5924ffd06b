// Bounded FIFO used for the simulated channel buffers: the splitter-side
// TCP send buffer and the worker-side receive buffer (the merger's reorder
// queues live in delivery::ReleaseCore). Bounded buffers are what create
// back pressure — and with it, the blocking signal the paper exploits.
//
// The capacity is fixed at construction, so the queue is one ring of
// `capacity` value-initialised items: push and pop move an item in or out
// and never allocate.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <utility>

namespace slb::sim {

template <typename T>
class BoundedFifo {
 public:
  explicit BoundedFifo(std::size_t capacity)
      : capacity_(capacity), ring_(std::make_unique<T[]>(capacity)) {
    assert(capacity > 0);
  }

  bool full() const { return size_ >= capacity_; }
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  std::size_t free_slots() const { return capacity_ - size_; }

  /// Pushes one item; caller must check `!full()` first.
  void push(T item) {
    assert(!full());
    std::size_t tail = head_ + size_;
    if (tail >= capacity_) tail -= capacity_;
    ring_[tail] = std::move(item);
    ++size_;
  }

  /// Non-asserting push; returns false when full.
  bool try_push(T item) {
    if (full()) return false;
    push(std::move(item));
    return true;
  }

  const T& front() const {
    assert(!empty());
    return ring_[head_];
  }

  T pop() {
    assert(!empty());
    T item = std::move(ring_[head_]);
    if (++head_ == capacity_) head_ = 0;
    --size_;
    return item;
  }

 private:
  std::size_t capacity_;
  std::unique_ptr<T[]> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace slb::sim
