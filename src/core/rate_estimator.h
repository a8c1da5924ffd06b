// Turns successive samples of cumulative blocking time into smoothed
// per-connection blocking rates (Section 3, Figure 2 of the paper).
//
// The blocking *rate* of connection j over a sampling period is the first
// difference of its cumulative blocking time divided by the period length:
// the fraction of the period the splitter spent blocked on that
// connection. It is dimensionless and lies in [0, 1] per connection (the
// splitter is a single thread, so the rates across connections also sum to
// at most ~1).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/time.h"

namespace slb {

/// Per-connection rate estimation with EWMA smoothing. Feed one cumulative
/// snapshot per period; read back smoothed rates.
class BlockingRateEstimator {
 public:
  /// @param connections number of connections in the region.
  /// @param alpha EWMA smoothing factor for the per-period raw rates.
  BlockingRateEstimator(int connections, double alpha);

  /// Ingests a snapshot taken at time `now`. The first call only
  /// establishes a baseline; it produces no rates.
  /// @param cumulative cumulative blocked ns per connection, monotone
  ///   non-decreasing between calls (a reset to a smaller value is treated
  ///   as a new baseline).
  void ingest(TimeNs now, std::span<const DurationNs> cumulative);

  /// True once at least two snapshots have been ingested.
  bool ready() const { return ready_; }

  /// Raw (unsmoothed) rate per connection over the most recent period
  /// (fraction of the period blocked); 0 until ready().
  std::span<const double> raw_rates() const { return raw_; }

  /// Per-connection EWMA of the raw rates: the first period's raw rate,
  /// then `alpha * raw + (1 - alpha) * previous`; 0 until ready().
  std::span<const double> smoothed_rates() const { return smoothed_; }

 private:
  std::vector<double> raw_;
  std::vector<double> smoothed_;
  std::vector<DurationNs> last_cumulative_;
  TimeNs last_time_ = 0;
  bool have_baseline_ = false;
  /// Every connection is smoothed on the same ingest, so one flag says
  /// whether the averages hold a first sample yet.
  bool ready_ = false;
  double alpha_;
};

/// Per-connection service-time capacity from worker-side counters: the
/// one measurement behind the capacity gauges and the capacity rule
/// (DESIGN.md §11). Feed one cumulative snapshot per period (a worker's
/// `service_ns` histogram: its count is the tuples served, its sum the ns
/// spent serving them). A channel's reading is 1e9 x served / busy tuples
/// per second of service, taken once its worker has served kMinServed
/// tuples since its last reading (in one period, or accumulated over
/// several light ones). A backlogged and an underfed worker read the same
/// capacity, so unlike the splitter's per-connection throughput
/// (Section 4.3) it does not mirror the weights.
class ServiceMeter {
 public:
  /// Fewer tuples than this resolve a service time too coarsely.
  static constexpr std::uint64_t kMinServed = 10;

  explicit ServiceMeter(int connections);

  /// Ingests one snapshot. The first call only establishes a baseline. A
  /// counter that went backwards counts as nothing served this period.
  void ingest(std::span<const std::uint64_t> completed,
              std::span<const DurationNs> busy);

  /// True once at least two snapshots have been ingested.
  bool ready() const { return ready_; }

  /// Tuples connection j's worker completed in the most recent period.
  std::uint64_t served(int j) const {
    return served_[static_cast<std::size_t>(j)];
  }
  /// The readings (tuples/s) the most recent period completed, -1 for a
  /// connection still short of kMinServed.
  std::span<const double> fresh() const { return fresh_; }
  /// Every connection's latest reading (tuples/s), 0 until its first.
  std::span<const double> capacities() const { return capacity_; }
  double capacity(int j) const {
    return capacity_[static_cast<std::size_t>(j)];
  }

  /// Drops what connection j has served since its last reading (its
  /// worker was replaced); the reading itself stays.
  void restart(int j);

 private:
  std::vector<std::uint64_t> last_completed_;
  std::vector<DurationNs> last_busy_;
  std::vector<std::uint64_t> served_;
  /// Tuples and busy ns each connection accumulated toward its next
  /// reading.
  std::vector<std::uint64_t> pending_served_;
  std::vector<DurationNs> pending_busy_;
  std::vector<double> fresh_;
  std::vector<double> capacity_;
  bool have_baseline_ = false;
  bool ready_ = false;
};

}  // namespace slb
