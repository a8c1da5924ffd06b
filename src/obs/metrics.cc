#include "obs/metrics.h"

#include <algorithm>
#include <cassert>

namespace slb::obs {

double Histogram::quantile(double q) const {
  if (!(q >= 0.0)) q = 0.0;  // also catches NaN
  if (q > 1.0) q = 1.0;
  // Capture a consistent-enough view: read the buckets once and size the
  // rank against their own total.
  std::array<std::uint64_t, kBuckets> b;
  std::uint64_t n = 0;
  for (int k = 0; k < kBuckets; ++k) {
    b[static_cast<std::size_t>(k)] = bucket_count(k);
    n += b[static_cast<std::size_t>(k)];
  }
  if (n == 0) return 0.0;
  // 0-based rank of the requested order statistic.
  const double target = q * static_cast<double>(n - 1);
  std::uint64_t before = 0;
  for (int k = 0; k < kBuckets; ++k) {
    const std::uint64_t c = b[static_cast<std::size_t>(k)];
    if (c == 0) continue;
    if (static_cast<double>(before + c) > target) {
      // Rank lands in this bucket: interpolate at the midpoint of the
      // rank's share of the bucket range (exact for bucket 0, whose only
      // admissible value is 0).
      const double lo = static_cast<double>(bucket_floor(k));
      const double hi = static_cast<double>(bucket_ceil(k));
      const double within =
          (target - static_cast<double>(before) + 0.5) / static_cast<double>(c);
      return lo + (hi - lo) * std::min(1.0, within);
    }
    before += c;
  }
  return static_cast<double>(bucket_ceil(kBuckets - 1));
}

const MetricValue* MetricsSnapshot::find(std::string_view name) const {
  for (const auto& [n, v] : entries) {
    if (n == name) return &v;
  }
  return nullptr;
}

std::uint64_t MetricsSnapshot::counter(std::string_view name) const {
  const MetricValue* v = find(name);
  return v == nullptr ? 0 : v->count;
}

MetricsSnapshot delta(const MetricsSnapshot& prev,
                      const MetricsSnapshot& cur) {
  MetricsSnapshot out;
  out.entries.reserve(cur.entries.size());
  for (const auto& [name, v] : cur.entries) {
    MetricValue d = v;
    const MetricValue* p = prev.find(name);
    if (p != nullptr && p->kind == v.kind && v.kind != MetricKind::kGauge) {
      d.count = v.count >= p->count ? v.count - p->count : 0;
      d.sum = v.sum >= p->sum ? v.sum - p->sum : 0;
      for (std::size_t k = 0; k < d.buckets.size() && k < p->buckets.size();
           ++k) {
        d.buckets[k] =
            d.buckets[k] >= p->buckets[k] ? d.buckets[k] - p->buckets[k] : 0;
      }
    }
    out.entries.emplace_back(name, std::move(d));
  }
  return out;
}

template <typename T>
T& MetricsRegistry::handle(std::string_view name, MetricKind kind,
                           Store<T>& store) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(name);
  if (it != index_.end()) {
    assert(it->second->kind == kind);
    return *static_cast<T*>(it->second->handle);
  }
  T& h = store.add();
  Node& n = nodes_.emplace_back(Node{std::string(name), kind, &h});
  index_.emplace(n.name, &n);  // keyed by a view of the node's own name
  return h;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  return handle(name, MetricKind::kCounter, counters_);
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  return handle(name, MetricKind::kGauge, gauges_);
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  return handle(name, MetricKind::kHistogram, histograms_);
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return nodes_.size();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.entries.reserve(nodes_.size());
  for (const Node& n : nodes_) {
    MetricValue v;
    v.kind = n.kind;
    switch (n.kind) {
      case MetricKind::kCounter:
        v.count = static_cast<const Counter*>(n.handle)->value();
        break;
      case MetricKind::kGauge:
        v.gauge = static_cast<const Gauge*>(n.handle)->value();
        break;
      case MetricKind::kHistogram: {
        const auto& histogram = *static_cast<const Histogram*>(n.handle);
        v.sum = histogram.sum();
        // One pass over the buckets: the captured values also supply the
        // sample count, so count and buckets are mutually consistent.
        int last = -1;
        std::array<std::uint64_t, Histogram::kBuckets> b;
        for (int k = 0; k < Histogram::kBuckets; ++k) {
          b[static_cast<std::size_t>(k)] = histogram.bucket_count(k);
          v.count += b[static_cast<std::size_t>(k)];
          if (b[static_cast<std::size_t>(k)] != 0) last = k;
        }
        v.buckets.assign(b.begin(), b.begin() + (last + 1));
        break;
      }
    }
    snap.entries.emplace_back(n.name, std::move(v));
  }
  return snap;
}

}  // namespace slb::obs
