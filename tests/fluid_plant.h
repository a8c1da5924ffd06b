// A fluid model of an ordered region, for tuning the controller in
// milliseconds instead of minutes of loopback TCP.
//
// The plant has per-channel capacities (tuples/s), a dead time of d
// sampling periods and an optional hop schedule that rotates the
// capacities across the channels every `hop_every` periods (for two
// channels, a swap: the 10x load moving from one worker to the other).
//
//   * The weights that shape period t are the ones applied d periods
//     earlier: the tuples routed at newer weights are still queued behind
//     the old ones (the loaded worker's backlog in the runtime).
//   * The bottleneck is the channel with the largest w_j / c_j under those
//     weights. The region releases 1000 / max_j(w_j / c_j) tuples/s.
//   * The splitter blocks on the bottleneck for `bottleneck_block` of the
//     period and on every other channel for `leak` of it.
//   * Each worker serves what it is sent: the bottleneck completes at its
//     capacity, the others at their share of the release rate, and a
//     starved channel (weight 0) completes nothing. Busy time is what
//     those completions cost at the channel's capacity.
//
// A policy sees exactly what RegionControlLoop::tick hands it: cumulative
// blocked ns, and the capacity readings of a ServiceMeter fed cumulative
// completions and busy ns per worker, as the loop's is.
// Oracle* (weights proportional to the true capacity, switched at each hop)
// runs through the same plant, so every case reports its own headroom.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/controller.h"
#include "core/policies.h"
#include "core/rate_estimator.h"
#include "core/types.h"
#include "util/time.h"

namespace slb::fluid {

struct PlantConfig {
  /// True capacities (tuples/s) from period 0 on.
  std::vector<double> capacities{500.0, 5000.0};
  /// Dead time d, in periods.
  int dead_periods = 0;
  /// Periods between hops (0: static skew).
  int hop_every = 0;
  DurationNs period = millis(100);
  int periods = 2000;
  double bottleneck_block = 0.99;
  double leak = 0.002;
  /// Hand the controller the workers' completions and busy time.
  bool completions = true;
};

struct PlantResult {
  /// Mean release rate over the second half of the run (tuples/s).
  double tput = 0.0;
  /// Range of the slowest channel's weight over the second half.
  Weight loaded_min = kWeightUnits;
  Weight loaded_max = 0;
};

/// The capacities in force during period t.
inline std::vector<double> capacities_at(const PlantConfig& cfg, int t) {
  std::vector<double> c = cfg.capacities;
  if (cfg.hop_every > 0) {
    const auto shift = static_cast<std::ptrdiff_t>(
        (t / cfg.hop_every) % static_cast<int>(c.size()));
    std::rotate(c.begin(), c.begin() + shift, c.end());
  }
  return c;
}

/// Decides the weights at the end of period t from the cumulative samples.
using Decide = std::function<WeightVector(
    int t, TimeNs now, const std::vector<DurationNs>& blocked,
    const std::vector<std::uint64_t>& completed,
    const std::vector<DurationNs>& busy)>;

inline PlantResult run_plant(const PlantConfig& cfg, const WeightVector& start,
                             const Decide& decide) {
  const std::size_t n = cfg.capacities.size();
  const double period_s = to_seconds(cfg.period);
  std::vector<WeightVector> history{start};
  std::vector<DurationNs> blocked(n, 0);
  std::vector<double> completed_f(n, 0.0);
  std::vector<double> busy_f(n, 0.0);
  std::vector<std::uint64_t> completed(n, 0);
  std::vector<DurationNs> busy(n, 0);
  PlantResult result;
  double tput_sum = 0.0;
  int tput_periods = 0;
  for (int t = 0; t < cfg.periods; ++t) {
    const std::vector<double> c = capacities_at(cfg, t);
    const WeightVector& w =
        history[static_cast<std::size_t>(std::max(0, t - cfg.dead_periods))];
    std::size_t bottleneck = 0;
    double worst = -1.0;
    for (std::size_t j = 0; j < n; ++j) {
      const double load = static_cast<double>(w[j]) / c[j];
      if (load > worst) {
        worst = load;
        bottleneck = j;
      }
    }
    const double tput = kWeightUnits / worst;
    for (std::size_t j = 0; j < n; ++j) {
      const double block = j == bottleneck ? cfg.bottleneck_block : cfg.leak;
      blocked[j] += static_cast<DurationNs>(
          block * static_cast<double>(cfg.period));
      const double served =
          tput * static_cast<double>(w[j]) / kWeightUnits * period_s;
      completed_f[j] += served;
      busy_f[j] += served / c[j] * 1e9;
      completed[j] = static_cast<std::uint64_t>(completed_f[j]);
      busy[j] = static_cast<DurationNs>(busy_f[j]);
    }
    if (t >= cfg.periods / 2) {
      tput_sum += tput;
      ++tput_periods;
      const auto slowest = static_cast<std::size_t>(
          std::min_element(c.begin(), c.end()) - c.begin());
      const Weight applied = history.back()[slowest];
      result.loaded_min = std::min(result.loaded_min, applied);
      result.loaded_max = std::max(result.loaded_max, applied);
    }
    const TimeNs now = (t + 1) * cfg.period;
    history.push_back(decide(t, now, blocked, completed, busy));
  }
  result.tput = tput_sum / tput_periods;
  return result;
}

/// Drives a fresh `Policy` (LoadBalancingPolicy or BlockingRatePolicy)
/// through the plant, one PolicySample per period.
template <typename Policy>
PlantResult run_policy(const PlantConfig& cfg) {
  const std::size_t n = cfg.capacities.size();
  Policy policy(static_cast<int>(n));
  ServiceMeter meter(static_cast<int>(n));
  const auto update = [&](TimeNs now, const std::vector<DurationNs>& blocked,
                          const std::vector<std::uint64_t>& completed,
                          const std::vector<DurationNs>& busy) {
    meter.ingest(completed, busy);
    policy.on_sample(PolicySample{
        now, blocked,
        cfg.completions ? meter.fresh() : std::span<const double>{}, {}});
    return policy.weights();
  };
  // The baseline sample, taken as the region starts.
  update(0, std::vector<DurationNs>(n, 0), std::vector<std::uint64_t>(n, 0),
         std::vector<DurationNs>(n, 0));
  return run_plant(cfg, policy.weights(),
                   [&](int, TimeNs now, const std::vector<DurationNs>& blocked,
                       const std::vector<std::uint64_t>& completed,
                       const std::vector<DurationNs>& busy) {
                     return update(now, blocked, completed, busy);
                   });
}

/// Oracle*: weights proportional to the capacities of the next period.
inline PlantResult run_oracle(const PlantConfig& cfg) {
  return run_plant(cfg, weights_from_shares(capacities_at(cfg, 0)),
                   [&](int t, TimeNs, const std::vector<DurationNs>&,
                       const std::vector<std::uint64_t>&,
                       const std::vector<DurationNs>&) {
                     return weights_from_shares(capacities_at(cfg, t + 1));
                   });
}

}  // namespace slb::fluid
