#include "sim/harness.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

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

LoadProfile build_load_profile(const ExperimentSpec& spec) {
  LoadProfile profile(spec.workers);
  for (const LoadClass& cls : spec.loads) {
    for (int w : cls.workers) {
      assert(w >= 0 && w < spec.workers);
      if (cls.until_work_fraction >= 0.0 || cls.until_paper_s < 0.0) {
        // Work-triggered lifting happens at runtime (run_fixed_work);
        // here the load simply starts at t=0.
        profile.add_step(w, 0, cls.multiplier);
      } else {
        profile.add_load_until(
            w, cls.multiplier,
            spec.scale.from_paper_seconds(cls.until_paper_s));
      }
    }
  }
  return profile;
}

namespace {

/// True when any load class lifts on a work threshold.
bool has_work_based_loads(const ExperimentSpec& spec) {
  for (const LoadClass& cls : spec.loads) {
    if (cls.until_work_fraction >= 0.0) return true;
  }
  return false;
}

/// The shared work fraction of all work-based classes (they must agree).
double work_fraction(const ExperimentSpec& spec) {
  double fraction = -1.0;
  for (const LoadClass& cls : spec.loads) {
    if (cls.until_work_fraction < 0.0) continue;
    assert(fraction < 0.0 || fraction == cls.until_work_fraction);
    fraction = cls.until_work_fraction;
  }
  return fraction;
}

/// Per-worker capacity (tuples per virtual second) with every liftable
/// (work-based) load removed: the post-change phase of the experiment.
double lifted_capacity(const ExperimentSpec& spec, int worker) {
  double multiplier = 1.0;
  for (const LoadClass& cls : spec.loads) {
    if (cls.until_work_fraction >= 0.0) continue;  // lifted
    for (int w : cls.workers) {
      if (w != worker) continue;
      if (cls.until_paper_s < 0.0) multiplier = cls.multiplier;
    }
  }
  const double host = spec.hosts.trivial() ? 1.0 : spec.hosts.factor(worker);
  const double cost_ns =
      static_cast<double>(spec.scale.tuple_cost(spec.base_multiplies)) *
      multiplier * host;
  return 1e9 / cost_ns;
}

}  // namespace

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
  double multiplier = 1.0;
  // Load classes are applied in order; a later class on the same worker
  // overrides (mirrors LoadProfile semantics where later steps win).
  for (const LoadClass& cls : spec.loads) {
    for (int w : cls.workers) {
      if (w != worker) continue;
      const bool active =
          cls.until_paper_s < 0.0 || paper_s < cls.until_paper_s;
      if (active) multiplier = cls.multiplier;
    }
  }
  const double host = spec.hosts.trivial()
                          ? 1.0
                          : spec.hosts.factor(worker);
  const double cost_ns =
      static_cast<double>(spec.scale.tuple_cost(spec.base_multiplies)) *
      multiplier * host;
  return 1e9 / cost_ns;  // tuples per virtual second
}

namespace {

/// Change times (paper seconds) at which any worker's capacity changes.
std::vector<double> capacity_change_times(const ExperimentSpec& spec) {
  std::vector<double> times{0.0};
  for (const LoadClass& cls : spec.loads) {
    if (cls.until_paper_s >= 0.0) times.push_back(cls.until_paper_s);
  }
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());
  return times;
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

std::unique_ptr<SplitPolicy> make_policy(PolicyKind kind,
                                         const ExperimentSpec& spec) {
  switch (kind) {
    case PolicyKind::kRoundRobin:
      return std::make_unique<RoundRobinPolicy>(spec.workers);
    case PolicyKind::kReroute:
      return std::make_unique<RerouteOnBlockPolicy>(spec.workers);
    case PolicyKind::kLbStatic:
    case PolicyKind::kLbAdaptive:
      return std::make_unique<LoadBalancingPolicy>(
          spec.workers, controller_config_for(kind, spec));
    case PolicyKind::kOracle: {
      std::vector<OraclePolicy::Phase> phases;
      if (has_work_based_loads(spec)) {
        // Two phases: loaded capacities now, lifted capacities applied by
        // the work trigger via advance_phase().
        OraclePolicy::Phase loaded;
        loaded.when = 0;
        OraclePolicy::Phase lifted;
        lifted.when = std::numeric_limits<TimeNs>::max();
        for (int w = 0; w < spec.workers; ++w) {
          loaded.capacities.push_back(true_capacity(spec, w, 0.0));
          lifted.capacities.push_back(lifted_capacity(spec, w));
        }
        phases.push_back(std::move(loaded));
        phases.push_back(std::move(lifted));
        return std::make_unique<OraclePolicy>(spec.workers,
                                              std::move(phases));
      }
      for (double t : capacity_change_times(spec)) {
        OraclePolicy::Phase phase;
        // Sample capacities just after the change takes effect.
        phase.when = spec.scale.from_paper_seconds(t);
        phase.capacities.reserve(static_cast<std::size_t>(spec.workers));
        for (int w = 0; w < spec.workers; ++w) {
          phase.capacities.push_back(true_capacity(spec, w, t + 1e-9));
        }
        phases.push_back(std::move(phase));
      }
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
  // Integrate the region's ideal throughput over the nominal duration.
  // Ideal throughput at time t is the sum of true capacities, capped by
  // the splitter's maximum send rate.
  const RegionConfig region = build_region_config(spec);
  const double splitter_rate =
      1e9 / static_cast<double>(region.send_overhead);
  if (has_work_based_loads(spec)) {
    // The load lifts after fraction f of the work: choose W so an ideal
    // run finishes in the nominal duration:
    //   f*W / R_loaded + (1-f)*W / R_lifted = D.
    const double f = work_fraction(spec);
    double r_loaded = 0.0;
    double r_lifted = 0.0;
    for (int w = 0; w < spec.workers; ++w) {
      r_loaded += true_capacity(spec, w, 0.0);
      r_lifted += lifted_capacity(spec, w);
    }
    r_loaded = std::min(r_loaded, splitter_rate);
    r_lifted = std::min(r_lifted, splitter_rate);
    const double duration_virtual_s =
        spec.duration_paper_s * static_cast<double>(spec.scale.paper_second) /
        1e9;
    return static_cast<std::uint64_t>(
        duration_virtual_s / (f / r_loaded + (1.0 - f) / r_lifted));
  }
  std::vector<double> times = capacity_change_times(spec);
  times.push_back(spec.duration_paper_s);
  double total = 0.0;
  for (std::size_t i = 0; i + 1 < times.size(); ++i) {
    if (times[i] >= spec.duration_paper_s) break;
    const double span_s =
        std::min(times[i + 1], spec.duration_paper_s) - times[i];
    double rate = 0.0;
    for (int w = 0; w < spec.workers; ++w) {
      rate += true_capacity(spec, w, times[i] + 1e-9);
    }
    rate = std::min(rate, splitter_rate);
    const double span_virtual_s =
        span_s * static_cast<double>(spec.scale.paper_second) / 1e9;
    total += rate * span_virtual_s;
  }
  return static_cast<std::uint64_t>(total);
}

ExperimentResult run_fixed_work(PolicyKind kind, const ExperimentSpec& spec,
                                std::uint64_t target_tuples,
                                double deadline_factor,
                                int throughput_window) {
  auto region = make_region(kind, spec);

  // Arm the work-based load lifts: when the threshold crosses, the
  // affected workers drop back to 1x and the oracle (if any) switches to
  // its post-change distribution.
  if (has_work_based_loads(spec)) {
    const double f = work_fraction(spec);
    Region* r = region.get();
    const ExperimentSpec* s = &spec;
    region->at_emitted(
        static_cast<std::uint64_t>(f * static_cast<double>(target_tuples)),
        [r, s] {
          for (const LoadClass& cls : s->loads) {
            if (cls.until_work_fraction < 0.0) continue;
            for (int w : cls.workers) {
              r->load().add_step(w, r->now(), 1.0);
            }
          }
          if (auto* oracle = dynamic_cast<OraclePolicy*>(&r->policy())) {
            oracle->advance_phase();
          }
        });
  }

  // Ring buffer of per-period emit counts for the final-throughput window.
  std::vector<std::uint64_t> window(
      static_cast<std::size_t>(throughput_window), 0);
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
