#include "core/rate_estimator.h"

#include <algorithm>
#include <cassert>

namespace slb {

BlockingRateEstimator::BlockingRateEstimator(int connections)
    : raw_(static_cast<std::size_t>(connections), 0.0),
      smoothed_(static_cast<std::size_t>(connections), 0.0),
      last_cumulative_(static_cast<std::size_t>(connections), 0) {
  assert(connections > 0);
}

void BlockingRateEstimator::ingest(TimeNs now,
                                   std::span<const DurationNs> cumulative) {
  assert(cumulative.size() == smoothed_.size());
  if (!have_baseline_) {
    std::copy(cumulative.begin(), cumulative.end(), last_cumulative_.begin());
    last_time_ = now;
    have_baseline_ = true;
    return;
  }
  const DurationNs period = now - last_time_;
  if (period < 0) {
    // Clock went backwards (host suspend, clock step). Re-baseline rather
    // than ignoring: ignoring would compare every future sample against
    // the bogus future timestamp and discard them until the clock catches
    // up — potentially forever.
    std::copy(cumulative.begin(), cumulative.end(), last_cumulative_.begin());
    last_time_ = now;
    return;
  }
  if (period == 0) return;  // duplicate sample; ignore
  for (std::size_t j = 0; j < smoothed_.size(); ++j) {
    DurationNs delta = cumulative[j] - last_cumulative_[j];
    // The transport layer periodically resets its counters (Figure 2);
    // a negative delta means a reset happened, so re-baseline this period.
    if (delta < 0) delta = cumulative[j];
    const double raw =
        static_cast<double>(delta) / static_cast<double>(period);
    raw_[j] = raw;
    smoothed_[j] = ready_ ? kAlpha * raw + (1.0 - kAlpha) * smoothed_[j] : raw;
    last_cumulative_[j] = cumulative[j];
  }
  last_time_ = now;
  ready_ = true;
}

ServiceMeter::ServiceMeter(int connections)
    : last_completed_(static_cast<std::size_t>(connections), 0),
      last_busy_(static_cast<std::size_t>(connections), 0),
      served_(static_cast<std::size_t>(connections), 0),
      pending_served_(static_cast<std::size_t>(connections), 0),
      pending_busy_(static_cast<std::size_t>(connections), 0),
      fresh_(static_cast<std::size_t>(connections), -1.0),
      capacity_(static_cast<std::size_t>(connections), 0.0) {
  assert(connections > 0);
}

void ServiceMeter::ingest(std::span<const std::uint64_t> completed,
                          std::span<const DurationNs> busy) {
  assert(completed.size() == served_.size());
  assert(busy.size() == served_.size());
  for (std::size_t j = 0; j < served_.size(); ++j) {
    const bool forward = have_baseline_ &&
                         completed[j] >= last_completed_[j] &&
                         busy[j] >= last_busy_[j];
    served_[j] = forward ? completed[j] - last_completed_[j] : 0;
    pending_served_[j] += served_[j];
    pending_busy_[j] += forward ? busy[j] - last_busy_[j] : 0;
    last_completed_[j] = completed[j];
    last_busy_[j] = busy[j];
    fresh_[j] = -1.0;
    if (pending_served_[j] < kMinServed || pending_busy_[j] <= 0) continue;
    fresh_[j] = capacity_[j] = 1e9 * static_cast<double>(pending_served_[j]) /
                               static_cast<double>(pending_busy_[j]);
    pending_served_[j] = 0;
    pending_busy_[j] = 0;
  }
  ready_ = have_baseline_;
  have_baseline_ = true;
}

void ServiceMeter::restart(int j) {
  pending_served_[static_cast<std::size_t>(j)] = 0;
  pending_busy_[static_cast<std::size_t>(j)] = 0;
}

}  // namespace slb
