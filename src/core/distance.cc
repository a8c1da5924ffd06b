#include "core/distance.h"

#include <algorithm>
#include <cmath>

namespace slb {

double distance_alpha() {
  const double r = static_cast<double>(kWeightUnits);
  return std::log(r) / std::fabs(std::log(r * kDelta));
}

DistanceFeatures distance_features(const RateFunction& f) {
  DistanceFeatures out;
  // Knee, floored so the log is finite and insensitive to noise among
  // connections that block almost immediately (paper's Figure 7 right).
  out.knee = std::max(kMinKnee, static_cast<double>(f.service_rate()));
  // Blocking at the knee and at full load, floored at delta.
  out.knee_blocking = std::max(
      kDelta,
      f.value(static_cast<Weight>(std::min<double>(out.knee, kWeightUnits))));
  out.full_blocking = std::max(kDelta, f.value(kWeightUnits));
  return out;
}

double knee_term(double knee_a, double knee_b) {
  return std::fabs(std::log(knee_a / knee_b));
}

double feature_distance(const DistanceFeatures& a, const DistanceFeatures& b,
                        double alpha, double d_knee, double limit) {
  // A NaN first term would make the full max NaN, so the second early
  // return needs the first term to be a number.
  if (d_knee > limit) return d_knee;
  const double d_rate_knee =
      alpha * std::fabs(std::log(a.knee_blocking / b.knee_blocking));
  if (d_rate_knee > limit && d_knee <= limit) return d_rate_knee;
  const double d_rate_full =
      alpha * std::fabs(std::log(a.full_blocking / b.full_blocking));
  return std::max({d_knee, d_rate_knee, d_rate_full});
}

double function_distance(const RateFunction& fj, const RateFunction& fk) {
  const DistanceFeatures a = distance_features(fj);
  const DistanceFeatures b = distance_features(fk);
  return feature_distance(a, b, distance_alpha(),
                          knee_term(a.knee, b.knee));
}

}  // namespace slb
