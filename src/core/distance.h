// Distance between two blocking-rate functions (paper Section 5.3).
//
// Clustering needs to decide when two connections "look alike". The paper
// compares, on a log-ratio scale:
//   * the service rates (knees) w_{j,s} and w_{k,s},
//   * the blocking at the knees F_j(w_{j,s}) vs F_k(w_{k,s}),
//   * the blocking at full load F_j(R) vs F_k(R),
// and takes the max of the three, scaling the rate terms by
// alpha = log(R) / |log(R * delta)| so all terms share a scale.
#pragma once

#include <limits>

#include "core/rate_function.h"

namespace slb {

/// Configuration for the clustering distance.
struct DistanceConfig {
  /// Floor applied to every value before taking logs (the paper's delta,
  /// "the value we introduce when we need to force monotonicity").
  double delta = 1e-6;
  /// Floor applied to the knees before the log-ratio: near-zero knees are
  /// extremely noisy on a log scale (knee 1 vs knee 3 would read as
  /// "far"), yet channels blocking at 0.1% vs 0.3% of the load belong
  /// together for every practical purpose.
  double min_knee = 5.0;
};

/// Scaling factor alpha from the paper.
double distance_alpha(const DistanceConfig& config);

/// The per-function inputs of Distance: the floored knee and the floored
/// blocking at the knee and at full load. Clustering computes them once
/// per function rather than once per pair.
struct DistanceFeatures {
  double knee = 0.0;
  double knee_blocking = 0.0;
  double full_blocking = 0.0;
};

DistanceFeatures distance_features(const RateFunction& f,
                                   const DistanceConfig& config);

/// The knee term of Distance, |log(knee_a / knee_b)|.
double knee_term(double knee_a, double knee_b);

/// Distance between two functions' features, given their knee term
/// `d_knee` = knee_term(a.knee, b.knee); `alpha` is distance_alpha(config).
/// With a finite `limit`, stops at the first term that exceeds it and
/// returns that term: then only "above limit" is exact, which is all
/// clustering needs of a pair beyond its threshold.
double feature_distance(
    const DistanceFeatures& a, const DistanceFeatures& b, double alpha,
    double d_knee, double limit = std::numeric_limits<double>::infinity());

/// The paper's Distance(F_j, F_k). Zero for indistinguishable functions,
/// large for functions with very different knees or blocking magnitudes.
double function_distance(const RateFunction& fj, const RateFunction& fk,
                         const DistanceConfig& config = {});

}  // namespace slb
