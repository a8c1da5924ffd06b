// Per-period tracing for the paper's in-depth figures (8, 11 top, 12):
// allocation weight and blocking rate per connection over time, plus
// cluster assignments for the clustering heatmap.
#pragma once

#include <string>
#include <vector>

#include "core/types.h"
#include "sim/harness.h"
#include "sim/region.h"

namespace slb::sim {

/// One sampling period's snapshot.
struct TraceRow {
  double paper_s = 0.0;
  WeightVector weights;             // per connection, 0.1% units
  std::vector<double> block_rates;  // per connection, fraction of period
  std::vector<int> cluster_of;      // per connection; empty if no clustering
  std::uint64_t emitted_in_period = 0;
  std::uint64_t shed_in_period = 0;  // source tuples shed (overload mode)
  bool overloaded = false;           // policy's declared overload state
};

/// Records one row per sample period via the region's sample hook.
class TraceRecorder {
 public:
  explicit TraceRecorder(const Scale& scale) : scale_(scale) {}

  /// Installs this recorder on a region (replaces any prior hook).
  void attach(Region& region);

  const std::vector<TraceRow>& rows() const { return rows_; }

  /// Writes the trace as CSV: paper_s, w0..wN-1, r0..rN-1, emitted.
  /// Returns false on I/O failure.
  bool write_csv(const std::string& path) const;

  /// Renders a compact textual summary of weight trajectories: one line
  /// per `stride` periods (every period when `stride` < 1), for console
  /// output in the figure benches.
  std::string render_weights(int stride = 10) const;

 private:
  Scale scale_;
  std::vector<TraceRow> rows_;
};

}  // namespace slb::sim
