// The transport-agnostic region control loop (DESIGN.md §9).
//
// One RegionControlLoop instance owns the full per-period decision
// pipeline for one ordered data-parallel region:
//
//   ingest per-channel blocking observations and service readings
//     -> policy update (decay / regression / minimax RAP or safe-mode
//        WRR — inside the SplitPolicy/LoadBalanceController)
//     -> saturation / overload declaration (inside the controller)
//     -> admission throttle computation
//     -> watchdog escalation ladder (throttle -> tighten shedding ->
//        safe mode, with calm unwind)
//     -> ControlActions returned to the caller
//
// The decision is a function of the sample: substrates pass this
// period's counters into tick() and apply the returned actions
// themselves. sim::Region (which also builds every flow::Pipeline
// parallel stage) sets its splitter's throttle and watermarks from
// them, rt::LocalRegion's splitter loop reads last_actions(), and
// flow::Pipeline aggregates its stages' actions onto its one source.
// Behavior parity across substrates is a tested invariant
// (tests/test_control_parity.cc feeds identical traces to the sim,
// flow-stage and runtime loops and requires byte-identical decision
// journals).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "control/protection.h"
#include "core/policies.h"
#include "core/rate_estimator.h"
#include "core/types.h"
#include "delivery/delivery.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "util/time.h"

namespace slb::control {

/// Snapshot of a region's at-least-once delivery state (DESIGN.md §10),
/// sampled once per period for the ack-stall watchdog rung. Substrates
/// without delivery semantics pass the default; a GapSkip loop ignores it.
struct DeliverySample {
  /// Highest contiguously released sequence acked back to the splitter.
  std::uint64_t cum_ack = 0;
  /// Tuples currently held for replay (buffered + pending re-send).
  std::uint64_t unacked = 0;
};

/// Worker-side service counters per channel, cumulative since the region
/// started: the tuples each worker has served and the ns it spent serving
/// them. Empty when the substrate has no workers to read.
struct ServiceSample {
  std::span<const std::uint64_t> completed;
  std::span<const DurationNs> busy;
};

/// The region's `worker.<j>.service_ns` histograms, one per channel, read
/// into a ServiceSample once per period (its count is what the worker has
/// served, its sum the ns it spent serving). Every substrate registers its
/// workers' histograms through one of these.
class ServiceCounters {
 public:
  ServiceCounters(obs::MetricsRegistry& metrics, int workers);

  obs::Histogram& histogram(int j) {
    return *hists_[static_cast<std::size_t>(j)];
  }
  /// Reads every histogram; the spans stay valid until the next read.
  ServiceSample read();

 private:
  std::vector<obs::Histogram*> hists_;
  std::vector<std::uint64_t> completed_;
  std::vector<DurationNs> busy_;
};

/// What the control loop decided in one period for the substrate to
/// apply, returned from RegionControlLoop::tick. The weights, safe-mode
/// flag and overload state are read from the policy, the watchdog stage
/// from the loop.
struct ControlActions {
  /// Admission throttle factor for the source, in [kMinThrottle, 1].
  /// Stays 1.0 unless admission control runs on a closed-loop source.
  double throttle = 1.0;

  /// Effective shed watermarks after any watchdog tightening
  /// (`shed_high == 0` disables shedding).
  std::uint64_t shed_high = 0;
  std::uint64_t shed_low = 0;

  /// Per-connection blocking rates over the period (fraction of the
  /// period the splitter spent blocked on each connection).
  std::vector<double> block_rates;
};

class RegionControlLoop {
 public:
  /// Drives `policy` (which must outlive the loop) for a region of
  /// `channels` connections, with the region's own `protection`, source
  /// pacing and `delivery` config. The loop never owns substrate state;
  /// it holds only the decision machinery.
  ///
  ///   * Admission control throttles only a closed-loop source
  ///     (`source_interval == 0`): an open-loop source cannot be slowed,
  ///     so the throttle decision is skipped entirely.
  ///   * The ack-stall rung is armed only under at-least-once, after
  ///     `delivery.ack_stall_periods` stalled periods (0 disables it).
  ///   * Registers the "region.throttle_m" and "region.watchdog_stage"
  ///     gauges in `metrics`, the capacity gauges (see tick), then the
  ///     policy's own under "policy."; the registry must outlive the loop.
  ///
  /// Throws std::invalid_argument unless the policy has one weight per
  /// channel: its picks index the splitter's per-channel state.
  RegionControlLoop(int channels, SplitPolicy* policy,
                    const ProtectionConfig& protection,
                    DurationNs source_interval,
                    const delivery::DeliveryConfig& delivery,
                    obs::MetricsRegistry& metrics);

  /// Attaches a decision journal to the loop's own lines (watchdog
  /// transitions, optional per-tick control lines) *and* to the policy's
  /// controller, so one journal records the complete decision sequence.
  /// Pass nullptr to detach. Not owned.
  void set_journal(obs::DecisionJournal* journal);

  /// When a journal is attached, also emit one "control" line per tick
  /// (rates, throttle, stage, watermarks, weights) in addition to the
  /// watchdog transition lines. Off by default so the committed golden
  /// journal (tests/golden/decision_journal.jsonl) keeps its shape.
  void set_journal_ticks(bool on) { journal_ticks_ = on; }

  /// When a journal is attached, also emit one "capacity" line per tick
  /// (each channel's completions and latest capacity reading, the
  /// headroom and the bottleneck). Off by default, like the control lines.
  void set_journal_capacity(bool on) { journal_capacity_ = on; }

  /// Periods over which region.headroom_m averages: one period's
  /// completions are too bursty to divide by.
  static constexpr int kHeadroomPeriods = 10;

  /// Runs one control period at time `now` on this period's sample:
  /// the cumulative blocked time (ns) per connection since the region
  /// started (the paper's blocking counters; the loop differences them),
  /// each worker's cumulative service counters (empty when the substrate
  /// has none), the cumulative tuples delivered per connection (empty
  /// when the substrate cannot attribute deliveries, which skips the
  /// policy's throughput feedback), and the delivery state for the
  /// ack-stall rung (read only under at-least-once). `span` is the actual
  /// elapsed time since the previous tick (substrates that overshoot their
  /// sample period pass the real span so rates stay normalized). The
  /// caller applies the returned actions.
  ///
  /// The loop's ServiceMeter is the region's one capacity measurement: it
  /// reads the service counters before the policy update and hands the
  /// period's readings to the policy (LB-capacity allocates from them).
  /// From the same meter the loop publishes, per channel,
  /// "region.capacity_tps.<j>", its latest reading (held until the next,
  /// which needs ServiceMeter::kMinServed tuples); the region's
  /// "region.headroom_m" (x1000: the summed capacity of the live channels
  /// over their completion rate, both over kHeadroomPeriods); and
  /// "region.bottleneck", the live channel with the largest weight per
  /// unit of capacity (-1 until one is measured).
  const ControlActions& tick(TimeNs now, DurationNs span,
                             std::span<const DurationNs> cumulative_blocked,
                             const ServiceSample& service,
                             std::span<const std::uint64_t> delivered = {},
                             const DeliverySample& delivery = {});

  /// Failure routing: substrates report connection state changes here
  /// (not straight to the policy) so quarantine/readmit decisions pass
  /// through the one control seam. A crash reports what the splitter's
  /// quarantine moved from channel j's replay buffer onto the survivors;
  /// under at-least-once the loop journals it as a "replay" line just
  /// before the policy's mark-down, so the journal shows recovery and
  /// load movement as one decision sequence. A re-admitted channel's
  /// next capacity reading counts only what its new worker serves.
  void mark_channel_down(TimeNs now, int j, std::uint64_t replayed_tuples,
                         std::uint64_t replayed_bytes);
  void mark_channel_up(int j);

  /// Ack-stall escalations fired so far (see the constructor).
  std::uint64_t ack_stalls() const { return ack_stalls_; }

  int watchdog_stage() const { return stage_; }
  const ControlActions& last_actions() const { return actions_; }
  SplitPolicy& policy() { return *policy_; }

 private:
  void watchdog_escalate(TimeNs now, double aggregate);
  void watchdog_unwind(TimeNs now, double aggregate);
  /// `aggregate` is the period's summed blocking rate, for the
  /// escalation line.
  void check_ack_stall(TimeNs now, const DeliverySample& delivery,
                       double aggregate);
  /// Updates the capacity gauges from this period's service readings
  /// (after the policy's update, for the weights).
  void publish_capacity(TimeNs now, DurationNs span);

  SplitPolicy* policy_;
  ProtectionConfig protection_;
  bool closed_loop_source_;
  bool at_least_once_;
  /// Ack-stall rung length; 0 (disarmed) unless at-least-once.
  int ack_stall_periods_;
  bool journal_ticks_ = false;
  bool journal_capacity_ = false;

  std::vector<DurationNs> prev_cumulative_;
  /// Connections currently reported down by the substrate.
  std::vector<char> down_;
  int stage_ = 0;
  int hot_streak_ = 0;
  int calm_streak_ = 0;

  /// Ack-stall rung state (see ack_stall_periods_).
  std::uint64_t prev_cum_ack_ = 0;
  int ack_stall_streak_ = 0;
  std::uint64_t ack_stalls_ = 0;

  /// Capacity state: the region's service readings, and the ring of the
  /// last kHeadroomPeriods periods' summed capacity, completions and span.
  ServiceMeter service_;
  struct HeadroomPeriod {
    double capacity = 0.0;
    std::uint64_t served = 0;
    DurationNs span = 0;
  };
  std::vector<HeadroomPeriod> headroom_ring_;
  std::size_t headroom_next_ = 0;

  ControlActions actions_;
  obs::DecisionJournal* journal_ = nullptr;
  obs::Gauge& throttle_gauge_;
  obs::Gauge& watchdog_gauge_;
  std::vector<obs::Gauge*> capacity_gauges_;
  obs::Gauge& headroom_gauge_;
  obs::Gauge& bottleneck_gauge_;
};

}  // namespace slb::control
