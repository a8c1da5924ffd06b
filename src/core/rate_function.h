// The per-connection blocking-rate function F_j (paper Section 5.1).
//
// F_j(w) predicts the blocking rate connection j experiences (or would
// experience) when allocated weight w, for w in {0, 1, ..., kWeightUnits}
// units of 0.1 %. It is maintained in three steps, exactly as the paper
// describes:
//
//   1. New observations are smoothed into the existing *raw* data at the
//      observed weight. The point (0, 0) is always assumed.
//   2. The raw points are forced non-decreasing by monotone regression
//      (PAVA, see monotone_regression.h), which gives one fitted value per
//      raw weight: the knots. A refit costs O(raw points).
//   3. The rest of the domain is linear interpolation between knots and
//      linear extrapolation beyond the last one, evaluated on demand from
//      the knots (RateCurve).
//
// The exploration mechanism (Section 5.4) is `decay_above`: every raw value
// beyond the current allocation weight is reduced geometrically, which —
// combined with monotone regression — flattens the function past the
// operating point and entices the optimizer to explore larger weights.
#pragma once

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

#include "core/monotone_regression.h"
#include "core/types.h"

namespace slb {

/// One raw observation cell: the smoothed observed blocking rate at a
/// particular weight, plus the accumulated sample weight (how much evidence
/// backs the value).
struct RawPoint {
  double value = 0.0;
  double weight = 0.0;
};

/// Raw observations as (weight, point) pairs in increasing weight order,
/// at most one per weight. A flat vector: refits walk it in cache order,
/// and after warm-up a new observed weight does not allocate.
using RawPoints = std::vector<std::pair<Weight, RawPoint>>;

/// The paper's delta: the smallest blocking rate that counts as blocking
/// (a function's knee is the first weight whose fit exceeds it), the floor
/// on a raw point's sample weight in the fit, and the floor on every value
/// the clustering distance takes a log of.
inline constexpr double kDelta = 1e-6;

/// The fitted form of a blocking-rate function: PAVA knots at the origin
/// and at every raw weight, joined by linear interpolation and extended
/// past the last knot with the final segment's slope. value(w) evaluates
/// the interpolation on demand; a refit reuses the curve's storage.
class RateCurve {
 public:
  /// Refits to `points`, (weight, RawPoint) pairs in increasing weight
  /// order, all weights in (0, kWeightUnits]. The origin (0, 0) is
  /// prepended. Sample weights are floored at kDelta.
  template <class Points>
  void fit(const Points& points) {
    begin();
    for (const auto& [w, p] : points) {
      add(w, p.value, std::max(p.weight, kDelta));
    }
    finish();
  }

  /// The fitted value at `w`, in [0, kWeightUnits].
  double value(Weight w) const;

  /// Writes value(w) for every w in [from, to] to out[0 .. to - from],
  /// walking the segments once instead of searching per weight.
  void values(Weight from, Weight to, double* out) const;

  /// The smallest weight whose value exceeds kDelta; kWeightUnits if
  /// none does.
  Weight knee() const;

 private:
  void begin();
  void add(Weight w, double value, double weight);
  void finish();
  /// The segment holding w <= xs_.back() (needs two or more knots):
  /// segment k covers [x_k, x_k+1), and the last knot closes the final
  /// segment at t = 1.
  std::size_t segment_of(Weight w) const;
  /// Segment k's interpolation at w (k + 1 < knots).
  double segment_value(std::size_t k, Weight w) const;

  std::vector<Weight> xs_;
  std::vector<double> ys_;  // fitted knot values, parallel to xs_
  std::vector<IsotonicBlock> blocks_;
  double slope_ = 0.0;  // extrapolation slope past xs_.back()
  /// True when every knot value and segment rise is finite and no rise
  /// is negative: then each segment and the extrapolation are
  /// non-decreasing in w, and knee() can search segment by segment.
  bool monotone_ = true;
};

/// A single connection's predictive blocking-rate function.
class RateFunction {
 public:
  /// Mixing factor when folding a new observation into an existing raw
  /// point: raw = kMixAlpha * new + (1 - kMixAlpha) * old.
  static constexpr double kMixAlpha = 0.5;
  /// Cap on a raw point's accumulated sample weight, so very old evidence
  /// cannot forever outvote fresh data in the isotonic fit.
  static constexpr double kMaxPointWeight = 8.0;

  /// Folds one observation into the raw data: connection was seen blocking
  /// at `rate` (fraction of the period spent blocked) while holding
  /// allocation weight `w`. `sample_weight` scales the evidence (the
  /// controller gives full weight to real blocking and a configurable
  /// smaller weight to zero observations). The fit is refreshed lazily.
  void observe(Weight w, double rate, double sample_weight = 1.0);

  /// Exploration decay: multiplies every raw value at weights strictly
  /// greater than `w` by `factor` (the paper uses 0.9 per iteration).
  void decay_above(Weight w, double factor);

  /// Predicted blocking rate at weight `w`. Triggers a (cached) fit.
  double value(Weight w) const;

  /// The "knee" / effective service rate w_s: the smallest weight at which
  /// the fitted function exceeds kDelta. Returns kWeightUnits if the
  /// function is flat zero (no blocking ever observed).
  Weight service_rate() const;

  /// Number of distinct raw weights with recorded evidence (excluding the
  /// assumed origin).
  int observed_points() const { return static_cast<int>(raw_.size()); }

  /// Raw data access (for cluster-function construction and tests).
  const RawPoints& raw() const { return raw_; }

  /// Bulk-loads raw data (used when building cluster aggregate functions):
  /// any range of (weight, RawPoint) pairs in increasing weight order,
  /// such as RawPoints or a std::map. An entry at weight 0 is dropped.
  template <class Points>
  void load_raw(const Points& points) {
    raw_.clear();
    for (const auto& [w, p] : points) {
      assert(raw_.empty() || w > raw_.back().first);
      if (w != 0) raw_.emplace_back(w, p);
    }
    dirty_ = true;
  }

  /// Removes all evidence; the function returns to identically zero.
  void reset();

 private:
  void fit() const;

  RawPoints raw_;  // never contains weight 0
  mutable RateCurve curve_;
  mutable Weight service_rate_ = kWeightUnits;
  mutable bool dirty_ = true;
};

}  // namespace slb
