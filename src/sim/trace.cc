#include "sim/trace.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "util/csv.h"

namespace slb::sim {

void TraceRecorder::attach(Region& region) {
  region.set_sample_hook([this](Region& r) {
    TraceRow row;
    row.paper_s = scale_.to_paper_seconds(r.now());
    row.weights = r.policy().weights();
    row.block_rates.reserve(static_cast<std::size_t>(r.workers()));
    for (int j = 0; j < r.workers(); ++j) {
      row.block_rates.push_back(r.last_period_blocking_rate(j));
    }
    if (const auto* lb =
            dynamic_cast<const LoadBalancingPolicy*>(&r.policy())) {
      const Clusters& clusters = lb->controller().clusters();
      if (!clusters.empty()) {
        row.cluster_of.assign(static_cast<std::size_t>(r.workers()), -1);
        for (std::size_t c = 0; c < clusters.size(); ++c) {
          for (ConnectionId j : clusters[c]) {
            row.cluster_of[static_cast<std::size_t>(j)] =
                static_cast<int>(c);
          }
        }
      }
    }
    row.emitted_in_period = r.emitted_last_period();
    row.shed_in_period = r.shed_last_period();
    row.overloaded = r.policy().overload_state().overloaded;
    rows_.push_back(std::move(row));
  });
}

bool TraceRecorder::write_csv(const std::string& path) const {
  CsvWriter csv(path);
  if (!csv.ok()) return false;
  if (rows_.empty()) return true;
  const std::size_t n = rows_.front().weights.size();
  // Cluster columns are included if ANY row carries assignments (the
  // first few periods never do — the controller has no data yet); rows
  // without assignments write -1.
  bool any_clusters = false;
  for (const TraceRow& row : rows_) {
    if (!row.cluster_of.empty()) {
      any_clusters = true;
      break;
    }
  }
  std::vector<std::string> header{"paper_s"};
  for (std::size_t j = 0; j < n; ++j) header.push_back("w" + std::to_string(j));
  for (std::size_t j = 0; j < n; ++j) header.push_back("rate" + std::to_string(j));
  if (any_clusters) {
    for (std::size_t j = 0; j < n; ++j) {
      header.push_back("cluster" + std::to_string(j));
    }
  }
  header.push_back("emitted");
  header.push_back("shed");
  header.push_back("overloaded");
  csv.header(header);
  for (const TraceRow& row : rows_) {
    std::vector<double> cells{row.paper_s};
    for (Weight w : row.weights) cells.push_back(static_cast<double>(w));
    for (double r : row.block_rates) cells.push_back(r);
    if (any_clusters) {
      for (std::size_t j = 0; j < n; ++j) {
        cells.push_back(j < row.cluster_of.size()
                            ? static_cast<double>(row.cluster_of[j])
                            : -1.0);
      }
    }
    cells.push_back(static_cast<double>(row.emitted_in_period));
    cells.push_back(static_cast<double>(row.shed_in_period));
    cells.push_back(row.overloaded ? 1.0 : 0.0);
    csv.row(cells);
  }
  return true;
}

std::string TraceRecorder::render_weights(int stride) const {
  std::ostringstream out;
  // A stride below 1 (a bench's duration/20 at a small scale) means every
  // row; stepping by 0 would never end.
  const auto step = static_cast<std::size_t>(std::max(stride, 1));
  for (std::size_t i = 0; i < rows_.size(); i += step) {
    const TraceRow& row = rows_[i];
    char ts[32];
    std::snprintf(ts, sizeof(ts), "t=%7.1fs |", row.paper_s);
    out << ts;
    for (Weight w : row.weights) {
      char cell[16];
      std::snprintf(cell, sizeof(cell), " %4d", w);
      out << cell;
    }
    out << '\n';
  }
  return out.str();
}

}  // namespace slb::sim
