// The load-balance controller: one instance per parallel region's
// splitter. This is the paper's full pipeline (Figures 4 and 6):
//
//   sample cumulative blocking  ->  blocking rates  ->  update F_j
//     ->  (decay for exploration)  ->  (cluster when wide)
//     ->  solve minimax RAP  ->  new allocation weights
//
// The controller is substrate-agnostic: callers feed it cumulative
// blocking counters (from the simulator or from real TCP instrumentation)
// once per period and apply the returned weights to their router. The
// same controller code drives every experiment in this repository.
#pragma once

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

/// Controller tunables. Defaults reproduce LB-adaptive from the paper;
/// set `decay_factor = 1.0` for LB-static.
struct ControllerConfig {
  /// Per-iteration geometric decay applied to F_j beyond the current
  /// weight (Section 5.4). 0.9 = the paper's 10 % reduction; 1.0 disables
  /// exploration (LB-static).
  double decay_factor = 0.9;

  /// Sample weight for zero-blocking observations. The paper only receives
  /// data for connections that blocked; recording "no blocking at weight
  /// w" with a small weight speeds recovery (see DESIGN.md). 0 disables.
  double zero_sample_weight = 0.25;

  /// Per-update bounds on weight movement (the RAP's m_j / M_j relative to
  /// the current weights). Downward moves are unbounded by default,
  /// matching the paper's traces where a loaded connection drops to 0 in
  /// one step; upward moves are further capped by the geometric step
  /// (LoadBalanceController::kGeometricStepFloor).
  Weight max_step_up = kWeightUnits;
  Weight max_step_down = kWeightUnits;

  /// Hard floor for every connection's weight (0 lets connections be shut
  /// off entirely, as in the paper).
  Weight min_weight = 0;

  /// Clustering (Section 5.3): engaged only when the region has at least
  /// `clustering_min_connections` connections.
  bool enable_clustering = false;
  int clustering_min_connections = 32;
  ClusteringConfig clustering;

  /// Overload protection (DESIGN.md §7). When enabled, a SaturationDetector
  /// watches the per-period blocking rates; while it declares overload the
  /// controller freezes exploration decay and weight movement (holding the
  /// last feasible allocation) and publishes a capacity-deficit estimate
  /// for source admission control / shedding. Off by default: the paper's
  /// throughput-bound experiments run saturated on purpose.
  bool enable_overload_protection = false;
  SaturationConfig saturation;

  RateFunctionConfig function;
};

/// Per-update diagnostic snapshot, used by traces and tests.
struct ControllerStatus {
  std::vector<double> smoothed_rates;
  std::vector<double> raw_rates;
  Clusters clusters;  // empty when clustering is off / not engaged
  double objective = 0.0;
  bool solver_feasible = true;
  long updates = 0;
};

class LoadBalanceController {
 public:
  /// EWMA smoothing factor for the per-period blocking rates reported in
  /// ControllerStatus::smoothed_rates and the journal (tracing only; the
  /// functions smooth per-weight via RateFunctionConfig::mix_alpha).
  static constexpr double kRateEwmaAlpha = 0.5;

  /// Geometric upward probing: each update's increase is capped at
  /// max(kGeometricStepFloor, current weight), so a connection being
  /// re-explored from near zero is fed only a trickle (cheap if it is
  /// still overloaded: its buffers barely fill before the blocking data
  /// arrives and the optimizer backs off), while a recovering connection
  /// still climbs to an even share within ~log2(R) updates. The tighter
  /// of this and ControllerConfig::max_step_up wins.
  static constexpr Weight kGeometricStepFloor = 8;

  LoadBalanceController(int connections, ControllerConfig config = {});

  /// Feeds one sampling period. `cumulative_blocked[j]` is connection j's
  /// cumulative blocking time (ns) at time `now`. Returns the weights to
  /// apply until the next update. The first call only establishes a
  /// baseline and returns the initial even split.
  const WeightVector& update(TimeNs now,
                             std::span<const DurationNs> cumulative_blocked);

  const WeightVector& weights() const { return weights_; }
  int connections() const { return static_cast<int>(functions_.size()); }
  const RateFunction& function(int j) const {
    return functions_[static_cast<std::size_t>(j)];
  }
  const ControllerStatus& status() const { return status_; }
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
  /// period. Idempotent.
  void mark_up(int j);

  bool is_down(int j) const {
    return down_[static_cast<std::size_t>(j)] != 0;
  }
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
  const SaturationDetector& saturation() const { return saturation_; }

 private:
  void solve_flat();
  void solve_clustered();
  void journal_solve(std::string_view mode);
  /// Journals + counts an overload enter/exit edge after observe().
  void note_overload_transition(TimeNs now);

  ControllerConfig config_;
  BlockingRateEstimator estimator_;
  SaturationDetector saturation_;
  std::vector<RateFunction> functions_;
  WeightVector weights_;
  ControllerStatus status_;
  /// Down connections (mark_down) are pinned to weight 0 and excluded
  /// from observation; char avoids vector<bool> proxy references.
  std::vector<char> down_;
  /// Until some connection actually blocks there is no evidence to act on
  /// (all functions are identically zero); keep the even split.
  bool seen_blocking_ = false;

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
