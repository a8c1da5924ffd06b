#include "core/saturation.h"

#include <algorithm>
#include <cmath>

namespace slb {

SaturationDetector::SaturationDetector(SaturationConfig config)
    : config_(config), deficit_(kDeficitAlpha) {}

void SaturationDetector::observe(std::span<const double> rates,
                                 std::span<const char> down, bool balanced) {
  if (smoothed_.size() < rates.size()) smoothed_.resize(rates.size(), -1.0);
  double aggregate = 0.0;
  double smoothed_min = 0.0;
  double smoothed_sum = 0.0;
  int live = 0;
  for (std::size_t j = 0; j < rates.size(); ++j) {
    if (j < down.size() && down[j] != 0) {
      // Downed connections carry no signal; forget their history so a
      // returning connection starts from its first fresh sample instead
      // of a stale one.
      smoothed_[j] = -1.0;
      continue;
    }
    double r = rates[j];
    if (!std::isfinite(r) || r < 0.0) r = 0.0;
    aggregate += r;
    smoothed_[j] = smoothed_[j] < 0.0
                       ? r
                       : config_.smoothing_alpha * r +
                             (1.0 - config_.smoothing_alpha) * smoothed_[j];
    smoothed_min =
        live == 0 ? smoothed_[j] : std::min(smoothed_min, smoothed_[j]);
    smoothed_sum += smoothed_[j];
    ++live;
  }
  last_aggregate_ = aggregate;
  if (live == 0) {
    // Nothing live: not an overload problem (the failure path owns this).
    enter_streak_ = 0;
    return;
  }
  const double smoothed_mean = smoothed_sum / static_cast<double>(live);

  if (!overloaded_) {
    const bool saturated =
        aggregate >= kEnterAggregate &&
        (balanced || (smoothed_min > 0.0 &&
                      smoothed_min >= kEnterMinFraction * smoothed_mean));
    enter_streak_ = saturated ? enter_streak_ + 1 : 0;
    if (enter_streak_ >= config_.enter_periods) {
      overloaded_ = true;
      exit_streak_ = 0;
      deficit_.reset();
      deficit_.add(aggregate);
    }
    return;
  }

  deficit_.add(aggregate);
  // Exit on aggregate slack alone: with the controller frozen the draft
  // leader can pin to one connection, so an evenness requirement here
  // would read normal drafting as recovery.
  exit_streak_ = aggregate < kExitAggregate ? exit_streak_ + 1 : 0;
  if (exit_streak_ >= kExitPeriods) {
    overloaded_ = false;
    enter_streak_ = 0;
    exit_streak_ = 0;
    deficit_.reset();
  }
}

double SaturationDetector::capacity_deficit() const {
  if (!overloaded_) return 0.0;
  return std::clamp(deficit_.value(), 0.0, 1.0);
}

}  // namespace slb
