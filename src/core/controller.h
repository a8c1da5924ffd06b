// The load-balance controller: one instance per parallel region's
// splitter. Each period's sample picks the rule. A sample without capacity
// readings runs the paper's full pipeline (Figures 4 and 6):
//
//   sample cumulative blocking  ->  blocking rates  ->  update F_j
//     ->  (decay for exploration)  ->  (cluster when wide)
//     ->  solve minimax RAP  ->  new allocation weights
//
// A sample that carries readings allocates by each worker's service-time
// capacity instead (DESIGN.md §11), as read by the region's ServiceMeter;
// the blocking rates still feed the journal and the saturation detector.
// Policies choose the rule by what they pass: LoadBalancingPolicy hands
// over the readings, BlockingRatePolicy (the paper's) never does.
//
// The controller is substrate-agnostic: callers feed it cumulative
// blocking counters (from the simulator or from real TCP instrumentation)
// and, when they have them, the period's capacity readings once per
// period, and apply the returned weights to their router. The same
// controller code drives every experiment in this repository.
//
// The controller keeps no copy of what others own: the per-period rates
// are read from its BlockingRateEstimator (raw_rates(), smoothed_rates()),
// and the update count from the registry (attach_metrics). Its estimator
// differences the blocking counters beside RegionControlLoop's own
// differencing; from the second sample on both read the same rates.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/clustering.h"
#include "core/rap.h"
#include "core/rate_estimator.h"
#include "core/rate_function.h"
#include "core/saturation.h"
#include "core/types.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "util/time.h"

namespace slb {

/// Controller tunables. The rate functions, the distance and the
/// clustering run on fixed constants (kDelta, kMinKnee, kClusterThreshold,
/// RateFunction::kMixAlpha and kMaxPointWeight); the RAP bounds are fixed
/// (LoadBalanceController::kGeometricStepFloor). Every field but the
/// overload protection belongs to the paper's rule; `decay_factor = 1.0`
/// makes it LB-static.
struct ControllerConfig {
  /// Per-iteration geometric decay applied to F_j beyond the current
  /// weight (Section 5.4). 0.9 = the paper's 10 % reduction; 1.0 disables
  /// exploration (LB-static).
  double decay_factor = 0.9;

  /// Sample weight for zero-blocking observations. The paper only receives
  /// data for connections that blocked; recording "no blocking at weight
  /// w" with a small weight speeds recovery (see DESIGN.md). 0 disables.
  double zero_sample_weight = 0.25;

  /// Clustering (Section 5.3): engaged only when the region has at least
  /// `clustering_min_connections` connections.
  bool enable_clustering = false;
  int clustering_min_connections = 32;

  /// Overload protection (DESIGN.md §7). When enabled, a SaturationDetector
  /// watches the per-period blocking rates; while it declares overload the
  /// controller freezes exploration decay and weight movement (holding the
  /// last feasible allocation) and publishes a capacity-deficit estimate
  /// for source admission control / shedding. Off by default: the paper's
  /// throughput-bound experiments run saturated on purpose.
  bool enable_overload_protection = false;
  SaturationConfig saturation;
};

class LoadBalanceController {
 public:
  /// Geometric upward probing: in the flat solve a live connection's
  /// weight may fall to 0 in one update (as in the paper's traces, where
  /// a loaded connection is shut off at once) but may rise by at most
  /// max(kGeometricStepFloor, current weight). A connection re-explored
  /// from near zero is thus fed only a trickle (cheap if it is still
  /// overloaded: its buffers barely fill before the blocking data arrives
  /// and the optimizer backs off), while a recovering connection still
  /// climbs to an even share within ~log2(R) updates. The clustered solve
  /// leaves every live connection free in [0, R]; a down connection is
  /// pinned at 0 in both.
  static constexpr Weight kGeometricStepFloor = 8;

  LoadBalanceController(int connections, ControllerConfig config = {});

  /// A measured capacity that moves by more than this factor in one
  /// period means the region changed (a load hop): every estimate not
  /// re-measured that period is stale and is raised to the largest one.
  static constexpr double kChangeFactor = 2.0;

  /// Feeds one sampling period. `cumulative_blocked[j]` is connection j's
  /// cumulative blocking time (ns) at time `now`; `capacity[j]` is the
  /// period's capacity reading of j's worker (tuples/s,
  /// ServiceMeter::fresh()), -1 where it has none. A non-empty `capacity`
  /// allocates by capacity; an empty one runs the paper's rule. Returns
  /// the weights to apply until the next update. The first call only
  /// establishes a baseline and returns the initial even split.
  const WeightVector& update(TimeNs now,
                             std::span<const DurationNs> cumulative_blocked,
                             std::span<const double> capacity = {});

  const WeightVector& weights() const { return weights_; }
  int connections() const { return static_cast<int>(functions_.size()); }
  const RateFunction& function(int j) const {
    return functions_[static_cast<std::size_t>(j)];
  }
  /// The blocking rates of the latest period and their EWMA, as the
  /// controller's estimator holds them; 0 until the second update.
  std::span<const double> raw_rates() const { return estimator_.raw_rates(); }
  std::span<const double> smoothed_rates() const {
    return estimator_.smoothed_rates();
  }
  /// The latest clustered solve's clusters; empty while clustering is off
  /// or not engaged.
  const Clusters& clusters() const { return clusters_; }
  /// Channel j's capacity estimate under the capacity rule (tuples/s of
  /// service): its latest reading, or the largest estimate if a hop made
  /// it stale; 0 until j has been read since it was last (re-)admitted.
  double capacity(int j) const { return capacity_[static_cast<std::size_t>(j)]; }
  const ControllerConfig& config() const { return config_; }

  /// Overrides the current weights (e.g. to seed a known-good split).
  void set_weights(const WeightVector& w);

  /// Failure handling: declares connection j dead. Its weight drops to
  /// zero immediately (m_j = M_j = 0 in every subsequent RAP), its
  /// blocking-rate history is discarded, and its current weight is
  /// redistributed proportionally over the survivors — the splitter can
  /// keep routing without waiting for the next sample period. Under
  /// declared overload the survivors get an even split instead: the
  /// frozen weights were feasible for a region that just lost a worker of
  /// capacity (DESIGN.md §7). Idempotent.
  void mark_down(int j);

  /// Re-admits a recovered connection. Its weight restarts from zero and
  /// climbs back via the existing geometric step-up probing (the same
  /// trickle-feed used for re-exploring a previously shut-off channel),
  /// so a still-sick worker costs at most a probe's worth of tuples per
  /// period. Under the capacity rule it probes until its worker has a
  /// reading. Idempotent.
  void mark_up(int j);

  /// down_mask()[j] != 0 while connection j is marked down.
  std::span<const char> down_mask() const { return down_; }
  /// Number of connections currently marked up.
  int live() const;

  /// Overload protection: true while the saturation detector has the
  /// region in declared overload mode (always false when
  /// enable_overload_protection is off).
  bool overloaded() const {
    return config_.enable_overload_protection && saturation_.overloaded();
  }

  /// Decision journal (DESIGN.md §8): while attached, every adaptation
  /// decision — observe, decay, cluster, solve, overload transition,
  /// mark_down/mark_up — is appended as one JSON line with the inputs the
  /// controller saw and the outputs it chose. Fixed-seed runs produce
  /// byte-identical journals. Pass nullptr to detach. Not owned.
  void set_journal(obs::DecisionJournal* journal) { journal_ = journal; }
  obs::DecisionJournal* journal() const { return journal_; }

  /// Registers the controller's counters and gauges under `prefix` in
  /// `registry` and keeps them current from then on. Handles are stable
  /// for the registry's lifetime; call once at wiring time.
  void attach_metrics(obs::MetricsRegistry& registry,
                      std::string_view prefix = "controller.");
  /// Estimated fraction of the offered load exceeding capacity (0 when
  /// not overloaded). Drives source throttling and shedding.
  double capacity_deficit() const { return saturation_.capacity_deficit(); }

 private:
  /// Capacity rule: folds this period's readings into the estimates
  /// (raising stale ones on a hop). Returns false while no live channel
  /// has an estimate.
  bool measure_capacity(std::span<const double> fresh);
  /// Capacity rule: weights proportional to the estimates, with every
  /// live channel kept at >= 1 unit and unmeasured ones on the geometric
  /// probe.
  void allocate_by_capacity();
  void solve_flat();
  void solve_clustered();
  /// Counts and journals a RAP solve (after a feasible one was applied).
  void journal_solve(std::string_view mode, const RapSolution& sol);
  /// Counts one update that produced weights.
  void note_update();
  /// Journals + counts an overload enter/exit edge after observe().
  void note_overload_transition(TimeNs now);

  ControllerConfig config_;
  BlockingRateEstimator estimator_;
  SaturationDetector saturation_;
  std::vector<RateFunction> functions_;
  WeightVector weights_;
  Clusters clusters_;
  /// Down connections (mark_down) are pinned to weight 0 and excluded
  /// from observation; char avoids vector<bool> proxy references.
  std::vector<char> down_;
  /// Until some connection actually blocks there is no evidence to act on
  /// (all functions are identically zero); keep the even split.
  bool seen_blocking_ = false;

  /// Capacity rule: each channel's estimate (see capacity()); positive
  /// exactly when it has been measured since it was last (re-)admitted.
  std::vector<double> capacity_;

  /// Solve buffers, reused from tick to tick so a clustered tick does not
  /// allocate per raw point: RAP bounds, function pointers, per-cluster
  /// merge buffers and fitted curves, each connection's cluster, and the
  /// per-cluster memo of curve values (kWeightUnits + 1 per cluster,
  /// valid below memo_filled_).
  std::vector<RapVariable> vars_;
  std::vector<const RateFunction*> fns_;
  ClusterMerger merger_;
  std::vector<RateCurve> cluster_curves_;
  std::vector<int> cluster_of_;
  std::vector<double> memo_;
  std::vector<Weight> memo_filled_;

  obs::DecisionJournal* journal_ = nullptr;
  /// Edge detector for overload enter/exit journal lines and counters.
  bool last_overloaded_ = false;
  /// Registry handles (attach_metrics); null until attached. The handles
  /// stay valid for the registry's lifetime, which callers must make
  /// outlive the controller.
  struct Metrics {
    obs::Counter* updates = nullptr;
    obs::Counter* solves = nullptr;
    obs::Counter* infeasible = nullptr;
    obs::Counter* overload_enters = nullptr;
    obs::Counter* overload_exits = nullptr;
    obs::Counter* mark_downs = nullptr;
    obs::Counter* mark_ups = nullptr;
    obs::Gauge* overloaded = nullptr;
    obs::Gauge* live = nullptr;
  } metrics_;
};

}  // namespace slb
