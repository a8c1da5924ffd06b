// The substrate side of the region control plane (DESIGN.md §9).
//
// A RegionPort is the narrow seam between one parallel region's *data
// plane* (splitter, channels, workers, merger — simulated or real) and
// the shared RegionControlLoop that decides, once per sample period, how
// to protect and rebalance it. The loop only ever touches the substrate
// through this interface: sample the per-channel blocking counters and
// delivery counts, then actuate the admission throttle and the shed
// watermarks. Everything else (weights, safe mode, quarantine) flows
// through the SplitPolicy the loop drives.
//
// Implementations in this repo: sim::Region (which is also every parallel
// stage of a flow::Pipeline; the pipeline aggregates the stage actions
// onto its shared source) and rt::LocalRegion.
#pragma once

#include <cstdint>
#include <vector>

#include "core/types.h"
#include "util/time.h"

namespace slb::control {

/// Snapshot of a region's at-least-once delivery state (DESIGN.md §10),
/// sampled once per period for the ack-stall watchdog rung. Substrates
/// without delivery semantics return the default ({enabled = false}).
struct DeliverySample {
  bool enabled = false;
  /// Highest contiguously released sequence acked back to the splitter.
  std::uint64_t cum_ack = 0;
  /// Tuples currently held for replay (buffered + pending re-send).
  std::uint64_t unacked = 0;
};

class RegionPort {
 public:
  virtual ~RegionPort() = default;

  /// Number of splitter -> worker connections in the region.
  virtual int channels() const = 0;

  /// Cumulative blocked time (ns) per connection since the region
  /// started — the paper's blocking counters, sampled destructively or
  /// not at the substrate's discretion (the loop only differences them).
  virtual std::vector<DurationNs> sample_blocked() = 0;

  /// Cumulative tuples delivered downstream per connection. Substrates
  /// that cannot attribute deliveries per connection (the threaded
  /// runtime's merger counts only totals) return an empty vector and the
  /// loop skips the policy's throughput feedback.
  virtual std::vector<std::uint64_t> sample_delivered() = 0;

  /// Actuates the admission throttle: scale the source to `factor` (in
  /// (0, 1]) of full speed. Substrates whose source cannot be slowed
  /// (open loop) may ignore the call.
  virtual void apply_throttle(double factor) = 0;

  /// Actuates the (possibly watchdog-tightened) shed watermarks.
  /// `high == 0` disables shedding.
  virtual void apply_shed_watermarks(std::uint64_t high,
                                     std::uint64_t low) = 0;

  /// At-least-once delivery state for the ack-stall watchdog rung.
  /// Deliberately non-pure: ports without delivery semantics (mock ports
  /// in tests) inherit the disabled default.
  virtual DeliverySample sample_delivery_state() { return {}; }
};

/// Everything the control loop decided in one period, returned from
/// RegionControlLoop::tick so substrates (and tests) can observe the
/// decision without re-deriving it. Actions have already been pushed
/// through the RegionPort by the time the struct is returned.
struct ControlActions {
  /// Admission throttle factor (1.0 = unthrottled). Meaningful only when
  /// `throttle_set` — admission control enabled on a closed-loop source.
  double throttle = 1.0;
  bool throttle_set = false;

  /// Effective shed watermarks after any watchdog tightening;
  /// `watermarks_changed` marks periods where they were (re)applied.
  std::uint64_t shed_high = 0;
  std::uint64_t shed_low = 0;
  bool watermarks_changed = false;

  /// Watchdog escalation stage (0 = normal .. 3 = safe-mode WRR) and the
  /// policy's resulting safe-mode flag.
  int watchdog_stage = 0;
  bool safe_mode = false;

  /// The policy's declared saturation state this period.
  bool overloaded = false;
  double capacity_deficit = 0.0;

  /// Per-connection blocking rates over the period (fraction of the
  /// period the splitter spent blocked on each connection) and their sum.
  std::vector<double> block_rates;
  double aggregate_block = 0.0;

  /// The allocation weights in force after this period's update.
  WeightVector weights;
};

}  // namespace slb::control
