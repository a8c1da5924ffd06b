#include "core/rate_function.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace slb {

namespace {

/// A search start inside [lo, hi]; a NaN guess starts at lo.
Weight clamp_guess(double guess, Weight lo, Weight hi) {
  if (guess >= static_cast<double>(hi)) return hi;
  if (guess >= static_cast<double>(lo)) return static_cast<Weight>(guess);
  return lo;
}

/// The first w in [lo, hi] with f(w) > kDelta, or -1, for f non-decreasing
/// on [lo, hi]: walks down or up from `guess`.
template <class F>
Weight first_exceeding(const F& f, Weight lo, Weight hi, Weight guess) {
  Weight w = guess;
  if (f(w) > kDelta) {
    while (w > lo && f(w - 1) > kDelta) --w;
    return w;
  }
  while (w < hi) {
    ++w;
    if (f(w) > kDelta) return w;
  }
  return -1;
}

}  // namespace

void RateCurve::begin() {
  // The origin is given a large weight so the regression cannot lift it:
  // an idle connection never blocks.
  xs_.clear();
  blocks_.clear();
  xs_.push_back(0);
  isotonic_push(blocks_, 0.0, 1e9);
}

void RateCurve::add(Weight w, double value, double weight) {
  assert(w > xs_.back() && w <= kWeightUnits);
  xs_.push_back(w);
  isotonic_push(blocks_, value, weight);
}

void RateCurve::finish() {
  ys_.clear();
  for (const IsotonicBlock& b : blocks_) ys_.insert(ys_.end(), b.count, b.mean);
  const std::size_t n = xs_.size();
  // Linear extrapolation past the last knot uses the slope of the final
  // segment (never negative thanks to the isotonic fit).
  slope_ = 0.0;
  if (n >= 2) {
    slope_ = (ys_[n - 1] - ys_[n - 2]) /
             static_cast<double>(xs_[n - 1] - xs_[n - 2]);
  }
  monotone_ = std::isfinite(ys_[0]);
  for (std::size_t k = 0; k + 1 < n; ++k) {
    const double rise = ys_[k + 1] - ys_[k];
    if (!std::isfinite(ys_[k + 1]) || !std::isfinite(rise) || rise < 0.0) {
      monotone_ = false;
    }
  }
}

double RateCurve::segment_value(std::size_t k, Weight w) const {
  const Weight x0 = xs_[k];
  const Weight x1 = xs_[k + 1];
  const double y0 = ys_[k];
  const double y1 = ys_[k + 1];
  const double t =
      static_cast<double>(w - x0) / static_cast<double>(x1 - x0);
  return y0 + t * (y1 - y0);
}

std::size_t RateCurve::segment_of(Weight w) const {
  const auto it = std::upper_bound(xs_.begin() + 1, xs_.end() - 1, w);
  return static_cast<std::size_t>(it - xs_.begin()) - 1;
}

double RateCurve::value(Weight w) const {
  assert(w >= 0 && w <= kWeightUnits);
  const Weight last = xs_.back();
  if (w > last) return ys_.back() + slope_ * static_cast<double>(w - last);
  if (xs_.size() == 1) return 0.0;  // the origin alone
  return segment_value(segment_of(w), w);
}

void RateCurve::values(Weight from, Weight to, double* out) const {
  assert(from >= 0 && from <= to && to <= kWeightUnits);
  const std::size_t n = xs_.size();
  const Weight last = xs_.back();
  Weight w = from;
  if (w <= last && n == 1) {  // the origin alone
    *out++ = 0.0;
    ++w;
  }
  if (w <= last) {
    std::size_t k = segment_of(w);
    for (; w <= to && w <= last; ++w) {
      if (k + 2 < n && w >= xs_[k + 1]) ++k;
      *out++ = segment_value(k, w);
    }
  }
  for (; w <= to; ++w) {
    *out++ = ys_.back() + slope_ * static_cast<double>(w - last);
  }
}

Weight RateCurve::knee() const {
  const std::size_t n = xs_.size();
  if (n == 1) return kWeightUnits;  // identically zero
  if (!monotone_) {
    for (Weight w = 0; w <= kWeightUnits; ++w) {
      if (value(w) > kDelta) return w;
    }
    return kWeightUnits;
  }
  // Rounding keeps y0 + t * (y1 - y0) non-decreasing in w within a
  // segment, so a segment whose t = 1 value does not exceed kDelta has no
  // weight that does.
  for (std::size_t k = 0; k + 1 < n; ++k) {
    const double rise = ys_[k + 1] - ys_[k];
    if (!(ys_[k] + rise > kDelta)) continue;
    const Weight lo = xs_[k];
    const Weight hi = k + 2 == n ? xs_[k + 1] : xs_[k + 1] - 1;
    const double guess = static_cast<double>(lo) +
                         std::ceil((kDelta - ys_[k]) / rise *
                                   static_cast<double>(xs_[k + 1] - lo));
    const Weight hit = first_exceeding(
        [&](Weight w) { return segment_value(k, w); }, lo, hi,
        clamp_guess(guess, lo, hi));
    if (hit >= 0) return hit;
  }
  const Weight last = xs_.back();
  if (last < kWeightUnits) {
    const double guess = static_cast<double>(last) +
                         std::ceil((kDelta - ys_.back()) / slope_);
    const Weight hit = first_exceeding(
        [&](Weight w) { return value(w); }, last + 1, kWeightUnits,
        clamp_guess(guess, last + 1, kWeightUnits));
    if (hit >= 0) return hit;
  }
  return kWeightUnits;
}

void RateFunction::observe(Weight w, double rate, double sample_weight) {
  // Degenerate measurements (a NaN from a zero-length period upstream, an
  // Inf from a counter glitch, a negative rate from a torn read) must not
  // poison the fit: one NaN in raw_ would propagate through the isotonic
  // regression into every fitted value. Drop them.
  if (!std::isfinite(rate) || rate < 0.0) return;
  if (!std::isfinite(sample_weight)) return;
  // The origin is pinned at (0,0); weights outside the domain are dropped
  // like any other degenerate measurement.
  if (w <= 0 || w > kWeightUnits) return;
  if (sample_weight <= 0.0) return;
  const auto it = std::lower_bound(
      raw_.begin(), raw_.end(), w,
      [](const auto& point, Weight x) { return point.first < x; });
  if (it == raw_.end() || it->first != w) {
    raw_.emplace(it, w, RawPoint{rate, sample_weight});
  } else {
    RawPoint& p = it->second;
    p.value = kMixAlpha * rate + (1.0 - kMixAlpha) * p.value;
    p.weight = std::min(p.weight + sample_weight, kMaxPointWeight);
  }
  dirty_ = true;
}

void RateFunction::decay_above(Weight w, double factor) {
  assert(factor >= 0.0 && factor <= 1.0);
  bool changed = false;
  for (auto it = raw_.rbegin(); it != raw_.rend() && it->first > w; ++it) {
    it->second.value *= factor;
    changed = true;
  }
  if (changed) dirty_ = true;
}

double RateFunction::value(Weight w) const {
  assert(w >= 0 && w <= kWeightUnits);
  fit();
  return curve_.value(w);
}

Weight RateFunction::service_rate() const {
  fit();
  return service_rate_;
}

void RateFunction::reset() {
  raw_.clear();
  dirty_ = true;
}

void RateFunction::fit() const {
  if (!dirty_) return;
  dirty_ = false;
  curve_.fit(raw_);
  service_rate_ = curve_.knee();
}

}  // namespace slb
