// Test-only reference for delivery::ReleaseCore: the same state machine
// with the plain release scan, which visits every connection's queue head
// in connection order on every pass. The production core visits only the
// connections whose head is at or below the cursor; the
// ReleaseCoreOracle tests (test_release_core.cc) drive both with the same
// operations and require identical observable behaviour.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "delivery/delivery.h"
#include "util/time.h"

namespace slb::testref {

/// Items are bare sequence numbers.
class LinearReleaseCore {
 public:
  static constexpr std::size_t kUnbounded =
      std::numeric_limits<std::size_t>::max();
  enum class Offer { kAccepted, kStale, kFull };

  LinearReleaseCore(int connections, delivery::DeliveryMode mode,
                    std::size_t capacity = kUnbounded)
      : queues_(static_cast<std::size_t>(connections)),
        freed_(static_cast<std::size_t>(connections), 0),
        floors_(static_cast<std::size_t>(connections), 0),
        capacity_(capacity),
        alo_(mode == delivery::DeliveryMode::kAtLeastOnce) {}

  Offer offer(int from, std::uint64_t seq) {
    if (seq < expected_) {
      discard_stale();
      return Offer::kStale;
    }
    auto& q = queues_[static_cast<std::size_t>(from)];
    if (alo_ && !q.empty() && seq < q.back()) {
      if (pool_.try_emplace(seq, from).second) {
        ++queued_;
      } else {
        discard_stale();
      }
      return Offer::kAccepted;
    }
    if (q.size() >= capacity_) return Offer::kFull;
    q.push_back(seq);
    ++queued_;
    raise_floor(from, seq + 1);
    return Offer::kAccepted;
  }

  void note_lost(std::uint64_t first, std::uint64_t count, TimeNs now) {
    if (count == 0 || first + count <= expected_) return;
    auto [it, fresh] = lost_.try_emplace(first, Lost{count, now});
    if (!fresh) it->second.count = std::max(it->second.count, count);
  }

  template <typename Emit, typename OnGap>
  void release(Emit&& emit, OnGap&& on_gap) {
    release_pass(emit, on_gap);
  }

  void raise_floor(int j, std::uint64_t floor) {
    if (alo_) return;
    auto& f = floors_[static_cast<std::size_t>(j)];
    f = std::max(f, floor);
  }
  void close(int j) { floors_[static_cast<std::size_t>(j)] = kEnded; }
  void reopen(int j) { floors_[static_cast<std::size_t>(j)] = expected_; }

  /// The same rule as the production core, by plain scans: nothing while
  /// a queue head is at or below the cursor, else jump to the lowest of
  /// every queue head, the pool and every floor.
  std::uint64_t skip_unreachable() {
    std::uint64_t reach = kEnded;
    for (const auto& q : queues_) {
      if (q.empty()) continue;
      if (q.front() <= expected_) return 0;
      reach = std::min(reach, q.front());
    }
    if (!pool_.empty()) reach = std::min(reach, pool_.begin()->first);
    for (const std::uint64_t f : floors_) reach = std::min(reach, f);
    if (reach == kEnded || reach <= expected_) return 0;
    const std::uint64_t skipped = reach - expected_;
    gaps_ += skipped;
    expected_ = reach;
    return skipped;
  }

  template <typename Fn>
  void take_freed(Fn&& fn) {
    for (std::size_t j = 0; j < freed_.size(); ++j) {
      if (freed_[j] == 0) continue;
      freed_[j] = 0;
      fn(static_cast<int>(j));
    }
  }

  const std::uint64_t* head(int j) const {
    const auto& q = queues_[static_cast<std::size_t>(j)];
    return q.empty() ? nullptr : &q.front();
  }
  void pop(int j) {
    queues_[static_cast<std::size_t>(j)].pop_front();
    freed_[static_cast<std::size_t>(j)] = 1;
    --queued_;
  }

  std::uint64_t unacked() const { return expected_ - acked_; }
  std::uint64_t take_ack() { return acked_ = expected_; }
  std::uint64_t expected() const { return expected_; }
  std::uint64_t gaps() const { return gaps_; }
  std::uint64_t dup_discards() const { return dup_discards_; }
  std::uint64_t late_discards() const { return late_discards_; }
  std::size_t queued() const { return queued_; }
  std::size_t pooled() const { return pool_.size(); }

 private:
  static constexpr std::uint64_t kEnded =
      std::numeric_limits<std::uint64_t>::max();

  struct Lost {
    std::uint64_t count;
    TimeNs declared_at;
  };

  void discard_stale() {
    if (alo_) {
      ++dup_discards_;
    } else {
      ++late_discards_;
    }
  }

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
        gaps_ += end - expected_;
        expected_ = end;
        skipped = true;
      }
      lost_.erase(it);
    }
  }

  /// The plain scan: lost ranges, then the pool, then every connection in
  /// order, repeated until a pass makes no progress.
  template <typename Emit, typename OnGap>
  void release_pass(Emit& emit, OnGap& on_gap) {
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
        const int from = pool_.begin()->second;
        if (!emit(from, pool_.begin()->first)) return;
        pool_.erase(pool_.begin());
        --queued_;
        ++expected_;
        progressed = true;
      }
      for (std::size_t j = 0; j < queues_.size(); ++j) {
        auto& q = queues_[j];
        while (!q.empty() && q.front() < expected_) {
          discard_stale();
          pop(static_cast<int>(j));
          progressed = true;
        }
        while (!q.empty() && q.front() == expected_) {
          if (!emit(static_cast<int>(j), q.front())) return;
          pop(static_cast<int>(j));
          ++expected_;
          progressed = true;
        }
      }
    }
  }

  std::vector<std::deque<std::uint64_t>> queues_;
  /// Sequence -> source connection for out-of-order replays.
  std::map<std::uint64_t, int> pool_;
  std::map<std::uint64_t, Lost> lost_;
  std::vector<std::uint8_t> freed_;
  std::vector<std::uint64_t> floors_;
  std::size_t capacity_;
  bool alo_;
  std::size_t queued_ = 0;
  std::uint64_t expected_ = 0;
  std::uint64_t acked_ = 0;
  std::uint64_t gaps_ = 0;
  std::uint64_t dup_discards_ = 0;
  std::uint64_t late_discards_ = 0;
};

}  // namespace slb::testref
