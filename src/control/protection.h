// Overload-protection configuration shared by every substrate
// (DESIGN.md §7, §9). One parallel region — simulated, embedded in a
// flow pipeline, or running over real loopback TCP — protects itself
// with the same three mechanisms, tuned by the same knobs:
//
//   * closed-loop admission control (throttle the source while the
//     policy declares overload),
//   * open-loop watermark load shedding (drop source backlog, with
//     exact gap accounting downstream),
//   * the watchdog escalation ladder (forced throttle -> tightened
//     shedding -> safe-mode WRR, with full unwind on sustained calm).
//
// This struct is the single source of truth, embedded as `protection`
// by sim::RegionConfig, flow::PipelineConfig (copied into every stage
// region's RegionConfig), and rt::LocalRegionConfig.
#pragma once

#include <cstdint>

namespace slb::control {

/// Floor of the admission throttle factor: a throttled source still
/// runs at a quarter of full speed.
inline constexpr double kMinThrottle = 0.25;

/// The watchdog counts a period as hot when the aggregate blocking rate
/// is at or above this.
inline constexpr double kWatchdogBlockBudget = 0.9;

struct ProtectionConfig {
  /// Closed-loop admission control: while the policy reports overload,
  /// throttle the source to (1 - capacity_deficit) of full speed,
  /// floored at kMinThrottle. No effect on open-loop sources (an
  /// external source cannot be slowed — that is what shedding is for).
  bool admission_control = false;

  /// Open-loop load shedding: when the source backlog reaches the high
  /// watermark, drop backlog tuples (reported downstream as sequence
  /// gaps) until it is back at the low watermark. 0 disables shedding.
  std::uint64_t shed_high_watermark = 0;
  std::uint64_t shed_low_watermark = 0;

  /// Watchdog ladder: if the aggregate blocking rate stays at or above
  /// kWatchdogBlockBudget for `watchdog_periods` consecutive sample
  /// periods, escalate one rung —
  ///   stage 1: clamp the admission throttle to kMinThrottle,
  ///   stage 2: halve the shed watermarks,
  ///   stage 3: drop the policy into safe-mode WRR.
  /// The same number of consecutive calm periods unwinds the ladder
  /// completely.
  bool watchdog = false;
  int watchdog_periods = 8;
};

}  // namespace slb::control
