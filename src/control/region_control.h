// The transport-agnostic region control loop (DESIGN.md §9).
//
// One RegionControlLoop instance owns the full per-period decision
// pipeline for one ordered data-parallel region:
//
//   ingest per-channel blocking observations
//     -> policy update (decay / regression / minimax RAP or safe-mode
//        WRR — inside the SplitPolicy/LoadBalanceController)
//     -> saturation / overload declaration (inside the controller)
//     -> admission throttle computation
//     -> watchdog escalation ladder (throttle -> tighten shedding ->
//        safe mode, with calm unwind)
//     -> ControlActions pushed through the RegionPort
//
// The substrates are thin adapters: sim::Region (which also builds every
// flow::Pipeline parallel stage) and rt::LocalRegion sample their
// counters on their own clock, call tick(), and actuate whatever comes
// back through their RegionPort. Behavior parity across substrates is a
// tested invariant (tests/test_control_parity.cc feeds identical traces
// to the sim, flow-stage and runtime loops and requires byte-identical
// decision journals).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "control/protection.h"
#include "control/region_port.h"
#include "core/policies.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "util/time.h"

namespace slb::control {

struct ControlLoopConfig {
  ProtectionConfig protection;

  /// True when the substrate's source is closed-loop (admission control
  /// can slow it). Open-loop substrates set false: the throttle decision
  /// is skipped entirely, matching the pre-refactor behavior of the sim
  /// and runtime regions.
  bool closed_loop_source = true;

  /// When a journal is attached, also emit one "control" line per tick
  /// (rates, throttle, stage, watermarks, weights) in addition to the
  /// watchdog transition lines. Off by default so the committed golden
  /// journal (tests/golden/decision_journal.jsonl) keeps its shape.
  bool journal_ticks = false;

  /// Ack-stall watchdog rung (at-least-once delivery, DESIGN.md §10):
  /// escalate after this many consecutive tick() periods during which
  /// the region reports unacked tuples, no cumulative-ack progress, and
  /// at least one unquarantined channel. The check samples the port in
  /// tick() only — tick_with() traces (the parity/replay seam) carry no
  /// delivery state, so their journals are unaffected. 0 disables.
  int ack_stall_periods = 0;
};

class RegionControlLoop {
 public:
  /// `port` and `policy` must outlive the loop. The loop never owns
  /// substrate state; it holds only the decision machinery.
  RegionControlLoop(RegionPort* port, SplitPolicy* policy,
                    ControlLoopConfig config);

  /// Attaches a decision journal to the loop's own lines (watchdog
  /// transitions, optional per-tick control lines) *and* to the policy's
  /// controller, so one journal records the complete decision sequence.
  /// Pass nullptr to detach. Not owned.
  void set_journal(obs::DecisionJournal* journal);

  /// Toggles per-tick control lines (see ControlLoopConfig::journal_ticks).
  void set_journal_ticks(bool on) { config_.journal_ticks = on; }

  /// Registers the loop's gauges under `prefix` (e.g. "region." ->
  /// "region.throttle_m", "region.watchdog_stage") and keeps them
  /// current. Call once at wiring time; the registry must outlive the
  /// loop.
  void attach_metrics(obs::MetricsRegistry& registry,
                      const std::string& prefix);

  /// Runs one control period at time `now`, sampling observations
  /// through the port. `span` is the actual elapsed time since the
  /// previous tick (substrates that overshoot their sample period pass
  /// the real span so rates stay normalized). Actions are applied
  /// through the port before the call returns.
  const ControlActions& tick(TimeNs now, DurationNs span);

  /// tick() with externally supplied observations — the seam the parity
  /// and replay tests drive: identical traces into identical loops must
  /// produce byte-identical journals regardless of substrate.
  const ControlActions& tick_with(
      TimeNs now, DurationNs span,
      std::span<const DurationNs> cumulative_blocked,
      std::span<const std::uint64_t> delivered);

  /// Failure routing: substrates report connection state changes here
  /// (not straight to the policy) so quarantine/readmit decisions pass
  /// through the one control seam.
  void mark_channel_down(int j);
  void mark_channel_up(int j);
  bool channel_down(int j) const {
    return down_[static_cast<std::size_t>(j)] != 0;
  }

  /// Journals a crash-replay event (at-least-once delivery): `tuples`
  /// unacked tuples totalling `bytes` moved from channel `j`'s replay
  /// buffer onto the survivors. Substrates call this next to
  /// mark_channel_down so the journal shows recovery and load movement
  /// as one decision sequence.
  void note_replay(TimeNs now, int j, std::uint64_t tuples,
                   std::uint64_t bytes);

  /// Ack-stall escalations fired so far (see ack_stall_periods).
  std::uint64_t ack_stalls() const { return ack_stalls_; }

  int watchdog_stage() const { return stage_; }
  const ControlActions& last_actions() const { return actions_; }
  const ControlLoopConfig& config() const { return config_; }
  const ProtectionConfig& protection() const { return config_.protection; }
  SplitPolicy& policy() { return *policy_; }

 private:
  void watchdog_escalate(TimeNs now, double aggregate);
  void watchdog_unwind(TimeNs now, double aggregate);
  void check_ack_stall(TimeNs now);

  RegionPort* port_;
  SplitPolicy* policy_;
  ControlLoopConfig config_;
  int channels_;

  std::vector<DurationNs> prev_cumulative_;
  /// Connections currently reported down by the substrate.
  std::vector<char> down_;
  /// Effective (possibly watchdog-halved) shed watermarks.
  std::uint64_t shed_high_;
  std::uint64_t shed_low_;
  int stage_ = 0;
  int hot_streak_ = 0;
  int calm_streak_ = 0;

  /// Ack-stall rung state (tick()-sampled only; see ack_stall_periods).
  std::uint64_t prev_cum_ack_ = 0;
  int ack_stall_streak_ = 0;
  std::uint64_t ack_stalls_ = 0;

  ControlActions actions_;
  obs::DecisionJournal* journal_ = nullptr;
  obs::Gauge* throttle_gauge_ = nullptr;
  obs::Gauge* watchdog_gauge_ = nullptr;
};

}  // namespace slb::control
