// A complete simulated data-parallel region: splitter, N TCP-like
// channels, N workers, in-order merger — plus the periodic sampling loop
// that feeds the splitter's blocked time to the routing policy. This is the
// simulator-facing top of the public API; every experiment in the paper
// is a Region configuration.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "control/protection.h"
#include "control/region_control.h"
#include "delivery/delivery.h"
#include "core/policies.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "sim/channel.h"
#include "sim/event.h"
#include "sim/fault.h"
#include "sim/host.h"
#include "sim/load_profile.h"
#include "sim/merger.h"
#include "sim/shared_host.h"
#include "sim/sink.h"
#include "sim/splitter.h"
#include "sim/worker.h"
#include "util/time.h"

namespace slb::sim {

struct RegionConfig {
  int workers = 2;

  /// Per-tuple service time at multiplier 1 on a speed-1 host. The
  /// harness maps the paper's "n integer multiplies" onto this.
  DurationNs base_cost = micros(10);

  /// Capacity in tuples of each channel's send buffer and of its receive
  /// buffer (see DESIGN.md: default ablated in bench/ablation_buffers).
  std::size_t channel_buffer = 32;

  /// When false the region ends in parallel sinks (Section 4.1 footnote):
  /// no sequence gating, tuples leave in arrival order. The back-pressure
  /// topology changes completely — see Section 4.3.
  bool ordered = true;

  /// Per-connection merger reorder-queue capacity; 0 = unbounded.
  ///
  /// The paper's merger reads eagerly from its sockets into application
  /// queues, so back pressure reaches the splitter only through the
  /// connection that is actually slow ("it is an artifact of our
  /// implementation *where* we block", Section 4.3). Unbounded reorder
  /// queues reproduce that: blocking concentrates on the slow/draft-leader
  /// connection instead of smearing across all of them. A finite value
  /// models the alternative block-at-the-merger design (ablated in
  /// bench/ablation_buffers).
  std::size_t merge_buffer = 0;

  DurationNs link_latency = micros(2);

  /// Splitter per-tuple cost; bounds the region's maximum input rate.
  DurationNs send_overhead = 100;

  /// Upstream source pacing: 0 = closed loop (paper's experiments);
  /// > 0 = one tuple becomes available every source_interval ns.
  DurationNs source_interval = 0;

  /// Blocking-counter sampling / policy-update period (the paper samples
  /// every second of its time scale; the harness scales this down).
  DurationNs sample_period = millis(10);

  // --- Delivery semantics (DESIGN.md §10) ------------------------------

  /// GapSkip (default; crash losses become merger gaps, no new state or
  /// events — byte-identical to the pre-delivery behavior) or
  /// AtLeastOnce (splitter replay buffers + merger cumulative acks +
  /// crash replay onto survivors + merger dedup).
  delivery::DeliveryConfig delivery;

  // --- Overload protection (DESIGN.md §7, §9) --------------------------

  /// The region's protection knobs (admission control, shed watermarks,
  /// watchdog ladder), enforced by the shared control::RegionControlLoop.
  control::ProtectionConfig protection;
};

/// Result of run_until_emitted.
struct RunResult {
  bool reached_target = false;
  std::uint64_t emitted = 0;
  /// Virtual time at which the target tuple was emitted (or the deadline).
  TimeNs finish_time = 0;
};

/// Binding of a region's workers onto dynamically shared hosts (for
/// multi-region clusters). `host_of[j]` is worker j's host index in
/// `hosts`, which must outlive the region.
struct SharedPlacement {
  SharedHostSet* hosts = nullptr;
  std::vector<int> host_of;
};

class Region {
 public:
  /// Builds and wires the whole region. `load` and `hosts` may be default
  /// (no external load; every worker on its own host). Throws
  /// std::invalid_argument, before any part is built, for a `load` whose
  /// width is not `config.workers`, a `hosts` model placing fewer
  /// workers, a `shared` placement of another width or naming a host
  /// outside its set, or a `config.send_overhead` or `sample_period` that
  /// is not positive; and for a policy without one weight per worker
  /// (RegionControlLoop).
  ///
  /// Multi-region use: pass a shared `external_sim` so several regions
  /// advance on one virtual timeline, and a SharedPlacement so their
  /// workers contend for the same hosts. Call start() on every region,
  /// then drive the shared simulator directly.
  ///
  /// Pipeline composition (flow::Pipeline): `input` feeds the splitter
  /// from an upstream channel instead of its own source. The splitter
  /// restamps sequences and, not being a source, ignores the throttle
  /// and shed watermarks. `downstream` chains the merger's output into
  /// the next stage with back pressure, or ends it in a sink; a
  /// CountingSink there is where end-to-end latency is measured. Both
  /// must outlive the region.
  Region(RegionConfig config, std::unique_ptr<SplitPolicy> policy,
         LoadProfile load = {}, HostModel hosts = {},
         Simulator* external_sim = nullptr, SharedPlacement shared = {},
         Channel* input = nullptr, TupleSink* downstream = nullptr);

  /// Arms the splitter and the sampling loop. Idempotent; run_for and
  /// run_until_emitted call it implicitly.
  void start() { ensure_started(); }

  /// Called once per sample period, after the policy has seen the new
  /// counters — the hook the tracing/experiment code uses.
  void set_sample_hook(std::function<void(Region&)> hook) {
    sample_hook_ = std::move(hook);
  }

  /// Registers a one-shot callback fired (from within the merger's emit
  /// path) when the emitted count first reaches `threshold`. Used for
  /// "an eighth through the experiment" load changes, which the paper
  /// defines in units of work, not time.
  void at_emitted(std::uint64_t threshold, std::function<void()> fn);

  /// The region's (mutable) external-load profile; experiments may append
  /// steps at the current time to impose or lift load mid-run.
  LoadProfile& load() { return load_; }

  /// Schedules a fault against this region's virtual timeline. Crash
  /// kills worker j and its connection (buffered/in-service tuples are
  /// lost and skipped by the merger as gaps), quarantines the connection
  /// at the splitter, and tells the policy to renormalize over the
  /// survivors. Recover restores all of that; the policy re-admits the
  /// connection through its normal probing path. Stall pauses delivery
  /// on j's connection for `duration` without losing anything. Faults
  /// are ordinary simulator events, so identical schedules replay
  /// identically. Call before or during a run. Throws
  /// std::invalid_argument for a worker outside [0, workers()).
  void inject_fault(const FaultEvent& fault);

  /// Tuples lost to crashes so far (buffered, in flight, or in service
  /// when their worker died). Each becomes a merger gap.
  std::uint64_t lost_tuples() const { return lost_tuples_.value(); }

  /// Tuples shed at the source so far (each one consumed a sequence
  /// number and became a merger gap, so ordering accounting stays exact).
  std::uint64_t shed_tuples() const { return splitter_->shed(); }

  /// Tuples shed during the most recent completed sample period.
  std::uint64_t shed_last_period() const { return shed_last_period_; }

  /// Current watchdog escalation stage (0 = normal, 1 = forced throttle,
  /// 2 = tightened shedding, 3 = safe-mode WRR).
  int watchdog_stage() const { return loop_->watchdog_stage(); }

  /// The region's control loop (DESIGN.md §9): the shared per-period
  /// decision pipeline this region adapts onto the simulator.
  control::RegionControlLoop& control() { return *loop_; }
  const control::RegionControlLoop& control() const { return *loop_; }

  /// Attaches `journal` to the control loop and (through it) the
  /// policy's controller, so the full decision sequence lands in one
  /// place. Not owned; pass nullptr to detach.
  void set_journal(obs::DecisionJournal* journal) {
    loop_->set_journal(journal);
  }

  /// Runs for `duration` of virtual time (starts the pipeline on first
  /// use).
  void run_for(DurationNs duration);

  /// Runs until `target` tuples have been emitted or `deadline` virtual
  /// time passes.
  RunResult run_until_emitted(std::uint64_t target, TimeNs deadline);

  // --- accessors used by experiments and tests -------------------------
  Simulator& simulator() { return *sim_; }
  const Simulator& simulator() const { return *sim_; }
  SplitPolicy& policy() { return *policy_; }
  const SplitPolicy& policy() const { return *policy_; }
  Splitter& splitter() { return *splitter_; }
  Merger& merger() { return *merger_; }
  Worker& worker(int j) { return *workers_[static_cast<std::size_t>(j)]; }
  Channel& channel(int j) { return *channels_[static_cast<std::size_t>(j)]; }
  const RegionConfig& config() const { return config_; }
  int workers() const { return config_.workers; }

  /// The region's metrics registry (DESIGN.md §8), populated at
  /// construction: "region.lost_tuples", "merger.*",
  /// "worker.<j>.service_ns", "splitter.*", then the control loop's
  /// "region.*" gauges and the policy's "policy.*" metrics, both
  /// registered by the loop's constructor.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  std::uint64_t emitted() const { return merger_->emitted(); }

  /// Tuples emitted during the most recent completed sample period —
  /// the instantaneous region throughput numerator.
  std::uint64_t emitted_last_period() const { return emitted_last_period_; }

  /// Blocking rate per connection over the last completed sample period
  /// (fraction of the period the splitter spent blocked on it).
  double last_period_blocking_rate(int j) const {
    return loop_->last_actions().block_rates[static_cast<std::size_t>(j)];
  }

  TimeNs now() const { return sim_->now(); }

 private:
  void ensure_started();
  void sample_tick();
  /// Applies a fault immediately (inject_fault's scheduled body, which
  /// has range-checked the worker).
  void apply_fault_now(FaultKind kind, int worker, DurationNs duration);

  bool alo() const {
    return config_.delivery.mode == delivery::DeliveryMode::kAtLeastOnce;
  }

  RegionConfig config_;
  std::unique_ptr<SplitPolicy> policy_;
  LoadProfile load_;
  HostModel hosts_;
  /// Declared before the components that hold handles into it.
  obs::MetricsRegistry metrics_;
  /// Tuples lost to crashes ("region.lost_tuples").
  obs::Counter& lost_tuples_;

  std::unique_ptr<Simulator> owned_sim_;  // null when externally driven
  Simulator* sim_;
  std::vector<std::unique_ptr<Channel>> channels_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::unique_ptr<Merger> merger_;
  std::unique_ptr<Splitter> splitter_;

  /// The shared decision pipeline (DESIGN.md §9), ticked on this
  /// region's samples; the region applies what it returns.
  std::unique_ptr<control::ServiceCounters> service_;
  std::unique_ptr<control::RegionControlLoop> loop_;

  std::function<void(Region&)> sample_hook_;
  bool started_ = false;

  std::uint64_t prev_emitted_ = 0;
  std::uint64_t emitted_last_period_ = 0;

  std::uint64_t stop_target_ = 0;
  TimeNs target_reached_at_ = -1;

  std::uint64_t prev_shed_ = 0;
  std::uint64_t shed_last_period_ = 0;

  struct EmitTrigger {
    std::uint64_t threshold;
    std::function<void()> fn;
    bool fired = false;
  };
  std::vector<EmitTrigger> emit_triggers_;
};

}  // namespace slb::sim
