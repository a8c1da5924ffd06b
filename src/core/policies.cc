#include "core/policies.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

namespace slb {

RoundRobinPolicy::RoundRobinPolicy(int connections)
    : weights_(even_weights(connections)), connections_(connections) {
  assert(connections > 0);
}

ConnectionId RoundRobinPolicy::pick_connection() {
  const int choice = cursor_;
  cursor_ = (cursor_ + 1) % connections_;
  return choice;
}

LoadBalancingPolicy::LoadBalancingPolicy(int connections,
                                         ControllerConfig config)
    : controller_(connections, config), wrr_(connections) {
  wrr_.set_weights(controller_.weights());
}

void LoadBalancingPolicy::on_sample(const PolicySample& sample) {
  // The controller keeps consuming samples even in safe mode — its
  // saturation detector is what decides when the episode is over — but
  // its weights only reach the router outside safe mode.
  const WeightVector& updated =
      controller_.update(sample.now, sample.blocked, sample.capacity);
  if (!safe_mode_) wrr_.set_weights(updated);
}

void LoadBalancingPolicy::on_sample(
    TimeNs now, std::span<const DurationNs> cumulative_blocked) {
  // Qualified: a virtual call would reach BlockingRatePolicy's override,
  // which forwards back here.
  LoadBalancingPolicy::on_sample(PolicySample{now, cumulative_blocked, {}, {}});
}

void LoadBalancingPolicy::on_channel_down(ConnectionId j) {
  controller_.mark_down(j);
  if (safe_mode_) {
    pin_even_live();
  } else {
    wrr_.set_weights(controller_.weights());
  }
}

void LoadBalancingPolicy::on_channel_up(ConnectionId j) {
  controller_.mark_up(j);
  if (safe_mode_) {
    pin_even_live();
  } else {
    wrr_.set_weights(controller_.weights());
  }
}

void LoadBalancingPolicy::enter_safe_mode() {
  if (safe_mode_) return;
  safe_mode_ = true;
  if (safe_mode_gauge_ != nullptr) safe_mode_gauge_->set(1);
  pin_even_live();
}

void LoadBalancingPolicy::exit_safe_mode() {
  if (!safe_mode_) return;
  safe_mode_ = false;
  if (safe_mode_gauge_ != nullptr) safe_mode_gauge_->set(0);
  wrr_.set_weights(controller_.weights());
}

void LoadBalancingPolicy::attach_metrics(obs::MetricsRegistry& registry,
                                         std::string_view prefix) {
  controller_.attach_metrics(registry, prefix);
  std::string gauge_name(prefix);
  gauge_name += "safe_mode";
  safe_mode_gauge_ = &registry.gauge(gauge_name);
  safe_mode_gauge_->set(safe_mode_ ? 1 : 0);
}

void LoadBalancingPolicy::pin_even_live() {
  // All down: routing is moot, keep the current weights.
  if (controller_.live() == 0) return;
  wrr_.set_weights(even_live_weights(controller_.down_mask()));
}

OraclePolicy::OraclePolicy(int connections, std::vector<Phase> schedule)
    : schedule_(std::move(schedule)), wrr_(connections) {
  std::sort(schedule_.begin(), schedule_.end(),
            [](const Phase& a, const Phase& b) { return a.when < b.when; });
  for (const Phase& p : schedule_) {
    assert(static_cast<int>(p.capacities.size()) == connections);
    (void)p;
  }
  // Apply any phase scheduled at or before time zero immediately.
  while (next_phase_ < schedule_.size() && schedule_[next_phase_].when <= 0) {
    wrr_.set_weights(weights_from_shares(schedule_[next_phase_].capacities));
    ++next_phase_;
  }
}

void OraclePolicy::on_sample(TimeNs now,
                             std::span<const DurationNs> /*unused*/) {
  while (next_phase_ < schedule_.size() &&
         schedule_[next_phase_].when <= now) {
    wrr_.set_weights(weights_from_shares(schedule_[next_phase_].capacities));
    ++next_phase_;
  }
}

void OraclePolicy::advance_phase() {
  if (next_phase_ >= schedule_.size()) return;
  wrr_.set_weights(weights_from_shares(schedule_[next_phase_].capacities));
  ++next_phase_;
}

ThroughputBalancedPolicy::ThroughputBalancedPolicy(int connections)
    : prev_(static_cast<std::size_t>(connections), 0), wrr_(connections) {}

void ThroughputBalancedPolicy::on_throughput(
    TimeNs /*now*/, std::span<const std::uint64_t> delivered) {
  assert(delivered.size() == prev_.size());
  if (!have_baseline_) {
    std::copy(delivered.begin(), delivered.end(), prev_.begin());
    have_baseline_ = true;
    return;
  }
  std::uint64_t total = 0;
  std::vector<std::uint64_t> delta(prev_.size());
  for (std::size_t j = 0; j < prev_.size(); ++j) {
    delta[j] = delivered[j] - prev_[j];
    prev_[j] = delivered[j];
    total += delta[j];
  }
  if (total == 0) return;

  // Move each weight part-way toward the observed delivery share. A floor
  // of one unit keeps starved connections probe-able.
  const WeightVector& current = wrr_.weights();
  std::vector<double> target(prev_.size());
  for (std::size_t j = 0; j < prev_.size(); ++j) {
    const double observed = static_cast<double>(delta[j]) /
                            static_cast<double>(total) * kWeightUnits;
    target[j] = std::max(
        1.0, (1.0 - kGain) * static_cast<double>(current[j]) +
                 kGain * observed);
  }
  wrr_.set_weights(weights_from_shares(target));
}

WeightVector weights_from_shares(const std::vector<double>& shares,
                                 Weight total_units) {
  assert(!shares.empty());
  double total = 0.0;
  for (double s : shares) {
    assert(s >= 0.0);
    total += s;
  }
  assert(total > 0.0);

  const std::size_t n = shares.size();
  WeightVector result(n, 0);
  std::vector<std::pair<double, std::size_t>> remainders(n);
  Weight assigned = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const double exact =
        shares[j] / total * static_cast<double>(total_units);
    result[j] = static_cast<Weight>(std::floor(exact));
    assigned += result[j];
    remainders[j] = {exact - std::floor(exact), j};
  }
  // Largest remainders (ties to the lowest index) get the leftover units.
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  for (Weight k = 0; k < total_units - assigned; ++k) {
    result[remainders[static_cast<std::size_t>(k) % n].second] += 1;
  }
  return result;
}

WeightVector even_live_weights(std::span<const char> down) {
  std::vector<double> shares(down.size(), 0.0);
  for (std::size_t j = 0; j < down.size(); ++j) {
    if (down[j] == 0) shares[j] = 1.0;
  }
  return weights_from_shares(shares);
}

}  // namespace slb
