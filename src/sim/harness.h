// Experiment harness: maps the paper's experiment vocabulary — "N PEs,
// base tuple cost of k integer multiplies, half the PEs 100x loaded until
// an eighth through the run" — onto simulator configurations, builds the
// four policy alternatives of Section 6 (Oracle*, LB-static, LB-adaptive,
// RR) plus the Section 4.4 re-routing baseline, and measures what the
// paper measures: execution time for a fixed amount of work and final
// throughput.
//
// Time scaling (see DESIGN.md): the simulator compresses the paper's
// physical time. One *paper second* defaults to 10 ms of virtual time and
// one *integer multiply* to 10 ns of virtual service time, preserving
// every ratio the dynamics depend on while keeping event counts tractable.
// Traces are reported in paper seconds; throughputs in tuples per
// *virtual* second.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/policies.h"
#include "sim/host.h"
#include "sim/load_profile.h"
#include "sim/region.h"

namespace slb::sim {

/// The paper-to-simulator scale.
struct Scale {
  /// Virtual ns of service per paper "integer multiply".
  static constexpr double kMultiplyNs = 10.0;
  /// Virtual ns per paper second (also the sampling period).
  DurationNs paper_second = millis(10);
  /// Buffers are sized so that draining a full send buffer takes about
  /// this fraction of a paper second (clamped to [kMinBuffer, kMaxBuffer]).
  static constexpr double kBufferFillFraction = 0.05;
  static constexpr std::size_t kMinBuffer = 8;
  static constexpr std::size_t kMaxBuffer = 64;

  DurationNs tuple_cost(long multiplies) const;
  double to_paper_seconds(TimeNs t) const;
  TimeNs from_paper_seconds(double s) const;
};

/// One class of simulated external load: `multiplier` applied to a set of
/// workers from time 0 until `until_paper_s` (negative = the whole run).
///
/// For the fixed-work experiments, `until_work_fraction` (when >= 0)
/// lifts the load once that fraction of the run's target tuples has been
/// emitted — the paper's "an eighth through the experiment" is an eighth
/// of the *work*, which is why a policy that copes badly with the load
/// also suffers it for longer (Section 6.4: "RR took at least 10x as
/// long"). Work-based lifting takes precedence over `until_paper_s`.
///
/// Where classes overlap, a worker runs at the multiplier of the last
/// class in spec order that covers it and has not lifted, else 1x. The
/// workers, true_capacity, Oracle* and ideal_work all read the load this
/// one way; Oracle* and ideal_work take the work lift to come after every
/// timed lift.
struct LoadClass {
  std::vector<int> workers;
  double multiplier = 1.0;
  double until_paper_s = -1.0;
  double until_work_fraction = -1.0;
};

/// One scheduled fault, in paper time: worker `worker` crashes, recovers,
/// or has its connection stalled for `duration_paper_s` starting at
/// `at_paper_s`. Faults are simulator events, so a spec with faults is
/// exactly as deterministic as one without.
struct FaultSpec {
  FaultKind kind = FaultKind::kWorkerCrash;
  int worker = 0;
  double at_paper_s = 0.0;
  double duration_paper_s = 0.0;  // kChannelStall only
};

enum class PolicyKind {
  kRoundRobin,
  kReroute,     // Section 4.4 transport-level re-routing baseline
  kLbStatic,    // paper's model, no exploration decay
  kLbAdaptive,  // paper's model with 10% decay (the full scheme)
  kOracle,      // Oracle*: true capacities, switched at load-change times
};

std::string policy_name(PolicyKind kind);

/// Full description of one experiment run.
struct ExperimentSpec {
  int workers = 2;
  long base_multiplies = 1000;
  std::vector<LoadClass> loads;
  HostModel hosts;  // default: one dedicated speed-1 host per worker
  double duration_paper_s = 200.0;
  Scale scale;
  /// Overrides for the LB controller (clustering etc.). decay_factor is
  /// forced by the policy kind.
  ControllerConfig controller;
  /// Merger reorder-queue bound; 0 = unbounded (the paper's eager merger,
  /// used for every Section 6 experiment). The Section 4.4 re-routing
  /// study uses a bounded merger — see DESIGN.md.
  std::size_t merge_buffer = 0;
  /// Scheduled failures (see DESIGN.md "Failure model"); applied by
  /// make_region.
  std::vector<FaultSpec> faults;
};

/// Builds the LoadProfile (in virtual time) from the spec's load classes.
LoadProfile build_load_profile(const ExperimentSpec& spec);

/// Builds the region config implied by the spec (buffer sizing, sampling
/// period = one paper second).
RegionConfig build_region_config(const ExperimentSpec& spec);

/// True per-worker capacity (tuples per virtual second) at paper time `t`,
/// accounting for load classes and host factors. This is ground truth the
/// Oracle* policy gets to see and LB has to discover.
double true_capacity(const ExperimentSpec& spec, int worker, double paper_s);

/// Builds one of the Section 6 policy alternatives for this spec.
std::unique_ptr<SplitPolicy> make_policy(PolicyKind kind,
                                         const ExperimentSpec& spec);

/// Builds a fully wired region for (spec, policy kind).
std::unique_ptr<Region> make_region(PolicyKind kind,
                                    const ExperimentSpec& spec);

/// What the paper's bar charts report for one run.
struct ExperimentResult {
  PolicyKind kind{};
  bool completed = false;
  std::uint64_t emitted = 0;
  /// Time to finish the fixed work, in paper seconds.
  double exec_time_paper_s = 0.0;
  /// Median throughput over the final periods, in millions of tuples per
  /// virtual second ("final throughput").
  double final_throughput_mtps = 0.0;
  std::uint64_t rerouted = 0;
  std::uint64_t total_sent = 0;
};

/// Runs the spec under `kind` until `target_tuples` are emitted (deadline
/// = `deadline_factor * duration_paper_s`). Final throughput is the median
/// of the last 21 sample periods before completion.
ExperimentResult run_fixed_work(PolicyKind kind, const ExperimentSpec& spec,
                                std::uint64_t target_tuples,
                                double deadline_factor = 25.0);

/// Chooses the fixed work for a spec: the tuples an ideal (oracle-weighted)
/// run would emit in `spec.duration_paper_s`, so Oracle* execution times
/// land near the nominal duration and everything else is comparable.
std::uint64_t ideal_work(const ExperimentSpec& spec);

/// Convenience for the paper's standard comparison: runs Oracle*,
/// LB-static, LB-adaptive and RR on the same spec/work and returns results
/// in that order.
std::vector<ExperimentResult> run_alternatives(const ExperimentSpec& spec,
                                               std::uint64_t target_tuples);

}  // namespace slb::sim
