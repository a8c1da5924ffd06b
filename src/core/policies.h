// Splitter routing policies: the paper's scheme plus every baseline its
// evaluation compares against (Section 6's Oracle*, LB-static,
// LB-adaptive, RR, and Section 4.4's transport-level re-routing).
//
// A policy answers two questions: "which connection gets the next tuple?"
// (pick_connection) and "what should change given what the region measured
// this period?" (on_sample: blocking counters, capacity readings,
// deliveries). Substrates call both; a policy that ignores samples (RR) is
// simply static. Each allocation rule is a type: LoadBalancingPolicy
// allocates by measured capacity, BlockingRatePolicy by the paper's rule.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/controller.h"
#include "core/types.h"
#include "core/wrr.h"
#include "util/time.h"

namespace slb {

/// One control period's per-connection feedback. An empty series is one
/// the substrate cannot provide.
struct PolicySample {
  TimeNs now = 0;
  /// Time the splitter spent blocked on each connection (ns, cumulative).
  std::span<const DurationNs> blocked;
  /// This period's service-time capacity reading of each connection's
  /// worker (tuples/s), -1 where there is none: the region's
  /// ServiceMeter::fresh(), the reading its capacity gauges publish.
  std::span<const double> capacity;
  /// Tuples delivered downstream per connection, cumulative (see
  /// on_throughput).
  std::span<const std::uint64_t> delivered;
};

class SplitPolicy {
 public:
  virtual ~SplitPolicy() = default;

  /// Routes the next tuple.
  virtual ConnectionId pick_connection() = 0;

  /// Periodic feedback: everything the region measured this period. The
  /// default hands the blocking counters to on_sample(now, blocked) and
  /// the delivered counts, if any, to on_throughput.
  virtual void on_sample(const PolicySample& sample) {
    on_sample(sample.now, sample.blocked);
    if (!sample.delivered.empty()) on_throughput(sample.now, sample.delivered);
  }

  /// Periodic feedback: cumulative blocking time per connection at `now`.
  virtual void on_sample(TimeNs now,
                         std::span<const DurationNs> cumulative_blocked) {
    (void)now;
    (void)cumulative_blocked;
  }

  /// Periodic feedback: cumulative tuples *delivered downstream* per
  /// connection. In an ordered region this carries no information — the
  /// merge equalizes it to the allocation weights (paper Section 4.3) —
  /// but in unordered regions (parallel sinks) it reveals capacity, and
  /// ThroughputBalancedPolicy consumes it.
  virtual void on_throughput(TimeNs now,
                             std::span<const std::uint64_t> delivered) {
    (void)now;
    (void)delivered;
  }

  /// Failure feedback from the substrate: connection j's peer is gone
  /// (detected via EPIPE/ECONNRESET on the real transport, or a fault
  /// event in the simulator). Policies that learn per-connection state
  /// should stop crediting j and shift its allocation to survivors.
  virtual void on_channel_down(ConnectionId j) { (void)j; }

  /// Failure feedback: connection j reconnected to a live worker and may
  /// be re-admitted (typically via cautious probing).
  virtual void on_channel_up(ConnectionId j) { (void)j; }

  /// Overload protection (DESIGN.md §7): the policy's view of the
  /// region's saturation state, published for the substrate's admission
  /// control and shedding. Policies without a detector report "never
  /// overloaded" and the substrate's protections stay inert.
  struct OverloadState {
    bool overloaded = false;
    /// Estimated fraction of offered load exceeding capacity, in [0, 1].
    double capacity_deficit = 0.0;
  };
  virtual OverloadState overload_state() const { return {}; }

  /// Safe-mode fallback: the substrate's watchdog has decided the policy's
  /// adaptive machinery is not keeping the region live (e.g. sustained
  /// blocking through throttle and shed stages) and demands a known-safe
  /// static split. Policies that adapt should pin an even split over live
  /// connections until exit_safe_mode(). Default: no-op (static policies
  /// are already their own safe mode).
  virtual void enter_safe_mode() {}
  virtual void exit_safe_mode() {}
  virtual bool safe_mode() const { return false; }

  /// Current allocation weights (diagnostic; sums to kWeightUnits).
  virtual const WeightVector& weights() const = 0;

  /// When true, the splitter may divert a tuple whose chosen connection
  /// would block to another connection with buffer space (the failed
  /// approach of Section 4.4, kept as a reproducible baseline).
  virtual bool reroute_on_block() const { return false; }

  /// Observability (DESIGN.md §8): register this policy's metrics under
  /// `prefix` in `registry`. Default no-op — static policies have no
  /// internal state worth exporting.
  virtual void attach_metrics(obs::MetricsRegistry& registry,
                              std::string_view prefix) {
    (void)registry;
    (void)prefix;
  }

  /// Observability: attach a controller decision journal. Default no-op
  /// for policies without a controller.
  virtual void set_journal(obs::DecisionJournal* journal) { (void)journal; }

  virtual std::string name() const = 0;
};

/// Naive round-robin: equal weights, no adaptation ("RR" in the paper).
class RoundRobinPolicy : public SplitPolicy {
 public:
  explicit RoundRobinPolicy(int connections);
  ConnectionId pick_connection() override;
  const WeightVector& weights() const override { return weights_; }
  std::string name() const override { return "RR"; }

 private:
  WeightVector weights_;
  int cursor_ = 0;
  int connections_;
};

/// Round-robin that additionally asks the splitter to re-route tuples at
/// the transport level when the chosen connection is full (Section 4.4).
class RerouteOnBlockPolicy : public RoundRobinPolicy {
 public:
  explicit RerouteOnBlockPolicy(int connections)
      : RoundRobinPolicy(connections) {}
  bool reroute_on_block() const override { return true; }
  std::string name() const override { return "RR-reroute"; }
};

/// The load-balance controller routed with smooth weighted round-robin,
/// "LB-capacity": weights from each sample's capacity readings (DESIGN.md
/// §11). A sample without readings, such as one that arrives through
/// on_sample(now, blocked), runs the paper's rule instead.
class LoadBalancingPolicy : public SplitPolicy {
 public:
  LoadBalancingPolicy(int connections, ControllerConfig config = {});

  ConnectionId pick_connection() override { return wrr_.pick(); }
  void on_sample(const PolicySample& sample) override;
  /// Blocking counters only (no capacity readings): the paper's rule.
  void on_sample(TimeNs now,
                 std::span<const DurationNs> cumulative_blocked) override;
  void on_channel_down(ConnectionId j) override;
  void on_channel_up(ConnectionId j) override;
  OverloadState overload_state() const override {
    return {controller_.overloaded(), controller_.capacity_deficit()};
  }
  void enter_safe_mode() override;
  void exit_safe_mode() override;
  bool safe_mode() const override { return safe_mode_; }
  const WeightVector& weights() const override {
    return safe_mode_ ? wrr_.weights() : controller_.weights();
  }
  std::string name() const override { return "LB-capacity"; }

  /// Controller counters/gauges land under `prefix` (e.g. "policy." ->
  /// "policy.updates"); a safe-mode gauge rides along.
  void attach_metrics(obs::MetricsRegistry& registry,
                      std::string_view prefix) override;
  void set_journal(obs::DecisionJournal* journal) override {
    controller_.set_journal(journal);
  }

  const LoadBalanceController& controller() const { return controller_; }

 private:
  /// Even split over live connections, for safe mode.
  void pin_even_live();

  LoadBalanceController controller_;
  SmoothWrr wrr_;
  /// While set, the WRR runs an even split over live connections and the
  /// controller's output is ignored (though it keeps learning).
  bool safe_mode_ = false;
  obs::Gauge* safe_mode_gauge_ = nullptr;
};

/// The paper's rule (Sections 5.2-5.4): blocking-rate functions F_j and
/// the minimax RAP, fed the blocking counters alone, whatever else a sample
/// carries. "LB-adaptive" with decay_factor < 1, "LB-static" with 1.
class BlockingRatePolicy final : public LoadBalancingPolicy {
 public:
  using LoadBalancingPolicy::LoadBalancingPolicy;
  using LoadBalancingPolicy::on_sample;
  void on_sample(const PolicySample& sample) override {
    LoadBalancingPolicy::on_sample(sample.now, sample.blocked);
  }
  std::string name() const override {
    return controller().config().decay_factor < 1.0 ? "LB-adaptive"
                                                    : "LB-static";
  }
};

/// Oracle*: applies externally-known ideal weights on a fixed schedule
/// (Section 6). "Ideal" weights are proportional to each connection's true
/// capacity; the star marks that at a load change it switches immediately,
/// which the paper notes is actually slightly *too early*.
class OraclePolicy : public SplitPolicy {
 public:
  /// One schedule entry: at `when`, start using weights proportional to
  /// `capacities` (relative processing speeds; need not be normalized).
  struct Phase {
    TimeNs when;
    std::vector<double> capacities;
  };

  OraclePolicy(int connections, std::vector<Phase> schedule);

  ConnectionId pick_connection() override { return wrr_.pick(); }
  using SplitPolicy::on_sample;
  void on_sample(TimeNs now,
                 std::span<const DurationNs> cumulative_blocked) override;
  const WeightVector& weights() const override { return wrr_.weights(); }
  std::string name() const override { return "Oracle*"; }

  /// Applies the next scheduled phase immediately, regardless of its
  /// timestamp. Experiments whose capacity changes are triggered by work
  /// progress rather than time (Section 6.3's "an eighth through the
  /// experiment") use this to keep the oracle omniscient.
  void advance_phase();

 private:
  std::vector<Phase> schedule_;
  std::size_t next_phase_ = 0;
  SmoothWrr wrr_;
};

/// Extension baseline (not in the paper): balance by observed
/// per-connection *delivered throughput*, with transport-level
/// re-routing so the single-threaded splitter does not simply enforce
/// its own weight mix by blocking. Each period it nudges weights toward
/// the observed delivery shares.
///
/// This works for unordered regions (parallel sinks), where rerouted
/// tuples exit freely and deliveries reveal capacity. In ordered regions
/// it inherits both Section 4.3 (deliveries mirror the input mix) and
/// Section 4.4 (re-routing is too little, too late), so it cannot correct
/// an imbalance — a runnable demonstration of why the paper needed the
/// blocking-rate signal. It always re-routes, so only the simulator runs
/// it (rt::LocalRegion rejects it).
class ThroughputBalancedPolicy : public SplitPolicy {
 public:
  /// Fraction of the observed-share correction applied per period.
  static constexpr double kGain = 0.5;

  explicit ThroughputBalancedPolicy(int connections);

  ConnectionId pick_connection() override { return wrr_.pick(); }
  void on_throughput(TimeNs now,
                     std::span<const std::uint64_t> delivered) override;
  const WeightVector& weights() const override { return wrr_.weights(); }
  /// Diverts tuples whose connection would block: without it the
  /// deliveries carry no capacity information at all.
  bool reroute_on_block() const override { return true; }
  std::string name() const override { return "TP-balance"; }

 private:
  std::vector<std::uint64_t> prev_;
  bool have_baseline_ = false;
  SmoothWrr wrr_;
};

/// Rounds fractional shares to integer weights summing exactly to
/// `total_units` (largest-remainder method). Shares need not be
/// normalized.
WeightVector weights_from_shares(const std::vector<double>& shares,
                                 Weight total_units = kWeightUnits);

/// An even split over the connections with `down[j] == 0` (at least one),
/// rounded like weights_from_shares; down connections get zero.
WeightVector even_live_weights(std::span<const char> down);

}  // namespace slb
