// Saturation (overload) detection for a parallel region's controller.
//
// The paper's blocking-rate mechanism assumes the region is *feasible*:
// some allocation exists under which every connection keeps up. When
// aggregate demand exceeds total worker capacity no such allocation
// exists — back pressure saturates every connection, each F_j flattens at
// its ceiling, and the minimax RAP loses its gradient: every reallocation
// looks equally bad, so decay-driven re-exploration just shovels tuples
// at channels that cannot absorb them.
//
// The detector recognizes that regime from the same per-period blocking
// rates the controller already consumes. The signature of saturation is
// twofold (see DESIGN.md §7):
//
//   1. the splitter is blocked almost all the time (aggregate rate ~1);
//   2. the blocking is *spread across all live connections* — once the
//      optimizer has equalized the F_j at their ceiling, no connection
//      stands out, which is exactly the flat-F_j / zero-gradient state.
//      (A high aggregate concentrated persistently on one connection is
//      the opposite: a strong gradient the optimizer can still exploit.)
//
// Within any single period, blocking concentrates on one connection — the
// paper's drafting phenomenon (Section 4.2): blocking on the leader gives
// every other connection slack. Under saturation the leader *rotates*
// across periods; under a feasible imbalance it pins to the overweighted
// connection until the controller reallocates. The evenness test therefore
// runs on slowly EWMA-smoothed per-connection rates (horizon of roughly a
// rotation cycle), while the aggregate test — a sum, invariant to which
// connection blocks — uses the instantaneous rate.
//
// Entry and exit are hysteretic: `enter_periods` consecutive saturated
// periods declare overload; kExitPeriods consecutive periods with real
// aggregate slack clear it. (Exit deliberately ignores evenness: once the
// controller freezes, the leader can pin without meaning recovery.) While
// overloaded the detector publishes a capacity-deficit estimate — the
// fraction of the offered load the region cannot absorb — which drives
// source admission control and splitter-side shedding.
#pragma once

#include <span>
#include <vector>

#include "util/ewma.h"

namespace slb {

struct SaturationConfig {
  /// Entry: overload is declared after this many consecutive saturated
  /// periods (SaturationDetector::kEnterAggregate, kEnterMinFraction).
  int enter_periods = 3;

  /// Per-connection smoothing for the evenness test. The horizon
  /// (~1/alpha periods) must cover a drafting rotation cycle, or the
  /// current leader's monopoly on the period masks the spread.
  double smoothing_alpha = 0.05;
};

/// Feed one vector of per-connection blocking rates per sampling period;
/// read back the overload state and the deficit estimate.
class SaturationDetector {
 public:
  /// Entry: a period is saturated when the instantaneous aggregate
  /// blocking rate (sum over live connections, in [0,1] for a
  /// single-threaded splitter) reaches kEnterAggregate, with every live
  /// connection's *smoothed* rate at least kEnterMinFraction of the
  /// smoothed live mean (the all-channels-blocking / flat-F_j test).
  static constexpr double kEnterAggregate = 0.90;
  static constexpr double kEnterMinFraction = 0.25;

  /// Exit (hysteresis): overload clears after kExitPeriods consecutive
  /// periods with instantaneous aggregate below kExitAggregate.
  static constexpr double kExitAggregate = 0.70;
  static constexpr int kExitPeriods = 3;

  /// Smoothing factor for the capacity-deficit estimate.
  static constexpr double kDeficitAlpha = 0.3;

  explicit SaturationDetector(SaturationConfig config = {});

  /// Ingests one period. `rates[j]` is connection j's blocking rate over
  /// the period (fraction of the period the splitter spent blocked on j,
  /// non-finite and negative values are treated as 0). `down[j] != 0`
  /// excludes connection j from the live set; pass an empty span when
  /// every connection is live. `balanced` says the weights already follow
  /// measured capacity (the capacity rule): a saturated aggregate is then
  /// overload however the blocking spreads, because there is no gradient
  /// left to exploit, and the evenness test is skipped. (With even
  /// weights over identical workers the blocking pins on one connection.)
  void observe(std::span<const double> rates,
               std::span<const char> down = {}, bool balanced = false);

  bool overloaded() const { return overloaded_; }

  /// Estimated fraction of the offered load exceeding region capacity,
  /// in [0, 1]; 0 when not overloaded. Smoothed from the aggregate
  /// blocking rate: the splitter spends this fraction of its time being
  /// refused, so throttling (or shedding) the same fraction of the
  /// source restores feasibility.
  double capacity_deficit() const;

  /// Aggregate blocking rate seen in the most recent period.
  double last_aggregate() const { return last_aggregate_; }

  const SaturationConfig& config() const { return config_; }

 private:
  SaturationConfig config_;
  Ewma deficit_;
  /// Smoothed per-connection rates for the evenness test; negative =
  /// uninitialized (first live sample initializes directly).
  std::vector<double> smoothed_;
  bool overloaded_ = false;
  int enter_streak_ = 0;
  int exit_streak_ = 0;
  double last_aggregate_ = 0.0;
};

}  // namespace slb
