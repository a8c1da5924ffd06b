#include "sim/harness.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

namespace slb::sim {

DurationNs Scale::tuple_cost(long multiplies) const {
  assert(multiplies > 0);
  return static_cast<DurationNs>(
      std::llround(static_cast<double>(multiplies) * kMultiplyNs));
}

double Scale::to_paper_seconds(TimeNs t) const {
  return static_cast<double>(t) / static_cast<double>(paper_second);
}

TimeNs Scale::from_paper_seconds(double s) const {
  return static_cast<TimeNs>(
      std::llround(s * static_cast<double>(paper_second)));
}

std::string policy_name(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kRoundRobin: return "RR";
    case PolicyKind::kReroute: return "RR-reroute";
    case PolicyKind::kLbStatic: return "LB-static";
    case PolicyKind::kLbAdaptive: return "LB-adaptive";
    case PolicyKind::kOracle: return "Oracle*";
  }
  return "?";
}

namespace {

/// Sample periods over which run_fixed_work takes the final throughput.
constexpr std::size_t kThroughputWindow = 21;

/// Paper times at which a timed class lifts, with 0, sorted and unique.
std::vector<double> change_times(const ExperimentSpec& spec) {
  std::vector<double> times{0.0};
  for (const LoadClass& cls : spec.loads) {
    if (cls.until_work_fraction < 0.0 && cls.until_paper_s >= 0.0) {
      times.push_back(cls.until_paper_s);
    }
  }
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());
  return times;
}

/// The load multiplier in force on `worker` at `paper_s`: that of the last
/// class in spec order that covers the worker and has not lifted, else 1.
/// A timed class lifts at its `until_paper_s`; a work-based one when
/// `lifted` says the run has done its fraction of the work.
double multiplier(const ExperimentSpec& spec, int worker, double paper_s,
                  bool lifted) {
  double m = 1.0;
  for (const LoadClass& cls : spec.loads) {
    const bool over = cls.until_work_fraction >= 0.0
                          ? lifted
                          : cls.until_paper_s >= 0.0 &&
                                paper_s >= cls.until_paper_s;
    if (!over && std::ranges::find(cls.workers, worker) != cls.workers.end()) {
      m = cls.multiplier;
    }
  }
  return m;
}

/// Every worker's capacity (tuples per virtual second) under the
/// multipliers in force at `paper_s`, host factors included.
std::vector<double> capacities(const ExperimentSpec& spec, double paper_s,
                               bool lifted) {
  const double cost_ns =
      static_cast<double>(spec.scale.tuple_cost(spec.base_multiplies));
  std::vector<double> caps;
  caps.reserve(static_cast<std::size_t>(spec.workers));
  for (int w = 0; w < spec.workers; ++w) {
    caps.push_back(1e9 / (cost_ns * multiplier(spec, w, paper_s, lifted) *
                          spec.hosts.factor(w)));
  }
  return caps;
}

/// Sets every worker of `profile` to its multiplier from `from` on: a step
/// at `from` and at each later change time, wherever the profile does not
/// already say the same.
void set_loads(const ExperimentSpec& spec, LoadProfile& profile, TimeNs from,
               bool lifted) {
  std::vector<std::pair<TimeNs, double>> changes{
      {from, spec.scale.to_paper_seconds(from)}};
  for (double t : change_times(spec)) {
    const TimeNs at = spec.scale.from_paper_seconds(t);
    if (at > from) changes.emplace_back(at, t);
  }
  for (int w = 0; w < spec.workers; ++w) {
    for (const auto& [at, paper_s] : changes) {
      const double m = multiplier(spec, w, paper_s, lifted);
      if (m != profile.at(w, at)) profile.add_step(w, at, m);
    }
  }
}

/// The shared work fraction of all work-based classes (they must agree),
/// or -1 when no class lifts on work.
double work_fraction(const ExperimentSpec& spec) {
  double fraction = -1.0;
  for (const LoadClass& cls : spec.loads) {
    if (cls.until_work_fraction < 0.0) continue;
    assert(fraction < 0.0 || fraction == cls.until_work_fraction);
    fraction = cls.until_work_fraction;
  }
  return fraction;
}

ControllerConfig controller_config_for(PolicyKind kind,
                                       const ExperimentSpec& spec) {
  ControllerConfig config = spec.controller;
  config.decay_factor = kind == PolicyKind::kLbAdaptive
                            ? (config.decay_factor < 1.0 ? config.decay_factor
                                                         : 0.9)
                            : 1.0;
  return config;
}

}  // namespace

LoadProfile build_load_profile(const ExperimentSpec& spec) {
  LoadProfile profile(spec.workers);
  set_loads(spec, profile, 0, /*lifted=*/false);
  return profile;
}

RegionConfig build_region_config(const ExperimentSpec& spec) {
  RegionConfig config;
  config.workers = spec.workers;
  config.base_cost = spec.scale.tuple_cost(spec.base_multiplies);
  config.sample_period = spec.scale.paper_second;

  // Size buffers so a full send buffer drains in about
  // kBufferFillFraction of a paper second at nominal service rate.
  const double target_tuples =
      Scale::kBufferFillFraction *
      static_cast<double>(spec.scale.paper_second) /
      static_cast<double>(config.base_cost);
  const std::size_t buf = std::clamp(
      static_cast<std::size_t>(std::llround(target_tuples)),
      Scale::kMinBuffer, Scale::kMaxBuffer);
  config.channel_buffer = buf;
  config.merge_buffer = spec.merge_buffer;
  return config;
}

double true_capacity(const ExperimentSpec& spec, int worker, double paper_s) {
  return capacities(spec, paper_s, false)[static_cast<std::size_t>(worker)];
}

std::unique_ptr<SplitPolicy> make_policy(PolicyKind kind,
                                         const ExperimentSpec& spec) {
  switch (kind) {
    case PolicyKind::kRoundRobin:
      return std::make_unique<RoundRobinPolicy>(spec.workers);
    case PolicyKind::kReroute:
      return std::make_unique<RerouteOnBlockPolicy>(spec.workers);
    case PolicyKind::kLbStatic:
    case PolicyKind::kLbAdaptive:
      // The paper's rule, so every figure reproduces the paper's policies.
      return std::make_unique<BlockingRatePolicy>(
          spec.workers, controller_config_for(kind, spec));
    case PolicyKind::kOracle: {
      // One phase per change time, then the work-lifted phase, which the
      // work trigger applies through advance_phase().
      const std::vector<double> times = change_times(spec);
      std::vector<OraclePolicy::Phase> phases;
      for (double t : times) {
        phases.push_back(
            {spec.scale.from_paper_seconds(t), capacities(spec, t, false)});
      }
      phases.push_back({std::numeric_limits<TimeNs>::max(),
                        capacities(spec, times.back(), true)});
      return std::make_unique<OraclePolicy>(spec.workers, std::move(phases));
    }
  }
  return nullptr;
}

std::unique_ptr<Region> make_region(PolicyKind kind,
                                    const ExperimentSpec& spec) {
  auto region = std::make_unique<Region>(build_region_config(spec),
                                         make_policy(kind, spec),
                                         build_load_profile(spec), spec.hosts);
  for (const FaultSpec& f : spec.faults) {
    FaultEvent event;
    event.kind = f.kind;
    event.worker = f.worker;
    event.at = spec.scale.from_paper_seconds(f.at_paper_s);
    event.duration = spec.scale.from_paper_seconds(f.duration_paper_s);
    region->inject_fault(event);
  }
  return region;
}

std::uint64_t ideal_work(const ExperimentSpec& spec) {
  // Integrate the region's ideal throughput over the nominal duration:
  // the sum of true capacities, capped by the splitter's maximum send rate.
  const double splitter_rate =
      1e9 / static_cast<double>(build_region_config(spec).send_overhead);
  const auto rate = [&](double paper_s, bool lifted) {
    const std::vector<double> caps = capacities(spec, paper_s, lifted);
    return std::min(std::accumulate(caps.begin(), caps.end(), 0.0),
                    splitter_rate);
  };
  const double paper_second = static_cast<double>(spec.scale.paper_second);
  std::vector<double> times = change_times(spec);
  if (const double f = work_fraction(spec); f >= 0.0) {
    // The load lifts after fraction f of the work: choose W so an ideal
    // run finishes in the nominal duration:
    //   f*W / R_loaded + (1-f)*W / R_lifted = D.
    const double duration_virtual_s =
        spec.duration_paper_s * paper_second / 1e9;
    return static_cast<std::uint64_t>(
        duration_virtual_s /
        (f / rate(0.0, false) + (1.0 - f) / rate(times.back(), true)));
  }
  times.push_back(spec.duration_paper_s);
  double total = 0.0;
  for (std::size_t i = 0; i + 1 < times.size(); ++i) {
    if (times[i] >= spec.duration_paper_s) break;
    const double span_s =
        std::min(times[i + 1], spec.duration_paper_s) - times[i];
    total += rate(times[i], false) * (span_s * paper_second / 1e9);
  }
  return static_cast<std::uint64_t>(total);
}

ExperimentResult run_fixed_work(PolicyKind kind, const ExperimentSpec& spec,
                                std::uint64_t target_tuples,
                                double deadline_factor) {
  auto region = make_region(kind, spec);

  // Arm the work-based load lifts: when the threshold crosses, every
  // worker takes its lifted multiplier and the oracle (if any) switches
  // to its post-change distribution.
  if (const double f = work_fraction(spec); f >= 0.0) {
    Region* r = region.get();
    const ExperimentSpec* s = &spec;
    region->at_emitted(
        static_cast<std::uint64_t>(f * static_cast<double>(target_tuples)),
        [r, s] {
          set_loads(*s, r->load(), r->now(), /*lifted=*/true);
          if (auto* oracle = dynamic_cast<OraclePolicy*>(&r->policy())) {
            oracle->advance_phase();
          }
        });
  }

  // Ring buffer of per-period emit counts for the final-throughput window.
  std::vector<std::uint64_t> window(kThroughputWindow, 0);
  std::size_t cursor = 0;
  region->set_sample_hook([&](Region& r) {
    window[cursor] = r.emitted_last_period();
    cursor = (cursor + 1) % window.size();
  });

  const TimeNs deadline = spec.scale.from_paper_seconds(
      spec.duration_paper_s * deadline_factor);
  const RunResult run = region->run_until_emitted(target_tuples, deadline);

  ExperimentResult result;
  result.kind = kind;
  result.completed = run.reached_target;
  result.emitted = run.emitted;
  result.exec_time_paper_s = spec.scale.to_paper_seconds(run.finish_time);
  result.rerouted = region->splitter().rerouted();
  result.total_sent = region->splitter().total_sent();

  // Median over the window: robust against the flush burst that can occur
  // when a previously-gating connection catches up and the merger drains
  // its backlog in one period.
  std::vector<std::uint64_t> sorted = window;
  std::sort(sorted.begin(), sorted.end());
  const double median_per_period =
      static_cast<double>(sorted[sorted.size() / 2]);
  const double period_s =
      static_cast<double>(spec.scale.paper_second) / 1e9;
  result.final_throughput_mtps = median_per_period / period_s / 1e6;
  return result;
}

std::vector<ExperimentResult> run_alternatives(const ExperimentSpec& spec,
                                               std::uint64_t target_tuples) {
  std::vector<ExperimentResult> results;
  for (PolicyKind kind :
       {PolicyKind::kOracle, PolicyKind::kLbStatic, PolicyKind::kLbAdaptive,
        PolicyKind::kRoundRobin}) {
    results.push_back(run_fixed_work(kind, spec, target_tuples));
  }
  return results;
}

}  // namespace slb::sim
