// Low-overhead metrics substrate shared by every layer (DESIGN.md §8).
//
// A MetricsRegistry hands out stable handles — Counter, Gauge, Histogram —
// that hot paths update with single relaxed atomic operations (no locks,
// no allocation, no branches beyond a null check when instrumentation is
// optional). Registration is the only synchronized operation and happens
// at wiring time, never per tuple.
//
// Histograms use power-of-2 log buckets: bucket 0 holds the value 0 and
// bucket k >= 1 holds [2^(k-1), 2^k). 64 buckets cover the full uint64
// range, so a nanosecond-valued histogram spans sub-ns to ~585 years with
// a fixed 2x resolution — the right trade for service times and blocking
// waits, where order of magnitude is the signal.
//
// Snapshot/delta semantics: snapshot() captures every metric in
// registration order; delta(prev, cur) subtracts counters and histogram
// buckets (gauges keep their current value), giving per-period views
// without resetting the live handles (readers never race writers).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace slb::obs {

/// Monotone event count.
///
/// Single-writer contract (all hot-path metrics here): every Counter,
/// Gauge, and Histogram is updated by exactly one thread — the component
/// that owns it (the splitter loop, one worker PE, the merger PE).
/// Updates are therefore plain load+store on a relaxed atomic: readers on
/// other threads (exporters, tests) always see a torn-free, monotone
/// value, and the writer pays no locked RMW on the per-tuple path.
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    v_.store(v_.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
  }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-written instantaneous value (throttle factor x1000, watchdog
/// stage, queue depth...).
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) {
    v_.store(v_.load(std::memory_order_relaxed) + d,
             std::memory_order_relaxed);
  }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Log-bucketed (power-of-2) histogram of non-negative integer samples.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  /// Bucket 0 <- value 0; bucket k >= 1 <- [2^(k-1), 2^k).
  static int bucket_index(std::uint64_t v) {
    if (v == 0) return 0;
    const int k = 64 - std::countl_zero(v);
    return k < kBuckets ? k : kBuckets - 1;
  }
  /// Smallest value the bucket admits.
  static std::uint64_t bucket_floor(int k) {
    return k == 0 ? 0 : std::uint64_t{1} << (k - 1);
  }
  /// Largest value the bucket admits.
  static std::uint64_t bucket_ceil(int k) {
    if (k == 0) return 0;
    if (k >= kBuckets - 1) return ~std::uint64_t{0};
    return (std::uint64_t{1} << k) - 1;
  }

  /// Two single-writer load+store pairs on the hot path (see Counter for
  /// the contract); the sample count is derived from the buckets at read
  /// time instead of being a third atomic.
  void record(std::uint64_t v) { record(v, 1); }

  /// Records `n` samples of value `v` in O(1): the same buckets and sum as
  /// `n` calls of record(v).
  void record(std::uint64_t v, std::uint64_t n) {
    auto& b = buckets_[static_cast<std::size_t>(bucket_index(v))];
    b.store(b.load(std::memory_order_relaxed) + n,
            std::memory_order_relaxed);
    sum_.store(sum_.load(std::memory_order_relaxed) + v * n,
               std::memory_order_relaxed);
  }

  std::uint64_t count() const {
    std::uint64_t n = 0;
    for (const auto& b : buckets_) n += b.load(std::memory_order_relaxed);
    return n;
  }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
  }
  std::uint64_t bucket_count(int k) const {
    return buckets_[static_cast<std::size_t>(k)].load(
        std::memory_order_relaxed);
  }

  /// Log-bucket quantile estimate (within-bucket linear interpolation).
  /// q outside [0, 1] (including NaN) is clamped; 0 samples -> 0. With a
  /// single sample — or every sample in one bucket — this degrades to a
  /// point inside that bucket, never a division by zero.
  double quantile(double q) const;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// One metric's captured value.
struct MetricValue {
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t count = 0;  // counter value, or histogram sample count
  std::uint64_t sum = 0;    // histogram sum
  std::int64_t gauge = 0;   // gauge value
  std::vector<std::uint64_t> buckets;  // histogram only; trailing zeros cut
};

/// A consistent-enough capture of the whole registry (each metric is read
/// atomically; cross-metric skew is bounded by the capture loop).
struct MetricsSnapshot {
  std::vector<std::pair<std::string, MetricValue>> entries;

  const MetricValue* find(std::string_view name) const;
  /// Counter/histogram value by name; 0 when absent (tests, exporters).
  std::uint64_t counter(std::string_view name) const;
};

/// cur - prev for counters and histograms; gauges keep cur. Metrics absent
/// from prev pass through unchanged.
MetricsSnapshot delta(const MetricsSnapshot& prev, const MetricsSnapshot& cur);

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registration: returns a handle stable for the registry's lifetime.
  /// Re-registering a name returns the existing handle (same kind
  /// required). Synchronized — call at wiring time, not per event.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  std::size_t size() const;
  MetricsSnapshot snapshot() const;

 private:
  /// A registered metric: its name, kind and handle, which lives in the
  /// store of its own kind (so a counter does not carry a histogram's
  /// buckets). Nodes keep registration order for snapshots.
  struct Node {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    void* handle = nullptr;
  };

  /// Stable-address storage for one kind of handle, allocated in chunks
  /// (a region registers hundreds of metrics; one allocation each would
  /// dominate its construction).
  template <typename T>
  class Store {
   public:
    T& add() {
      if (used_ == kChunk) {
        chunks_.push_back(std::make_unique<T[]>(kChunk));
        used_ = 0;
      }
      return chunks_.back()[used_++];
    }

   private:
    static constexpr std::size_t kChunk = 32;
    std::vector<std::unique_ptr<T[]>> chunks_;
    std::size_t used_ = kChunk;
  };

  /// Returns the handle registered under `name`, creating it in `store`.
  template <typename T>
  T& handle(std::string_view name, MetricKind kind, Store<T>& store);

  mutable std::mutex mu_;
  std::deque<Node> nodes_;  // deque: stable names for the index's keys
  Store<Counter> counters_;
  Store<Gauge> gauges_;
  Store<Histogram> histograms_;
  std::unordered_map<std::string_view, Node*> index_;
};

}  // namespace slb::obs
