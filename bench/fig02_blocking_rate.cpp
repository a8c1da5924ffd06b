// Figure 2: idealized calculation of per-connection blocking rate.
//
// Reproduces the paper's illustration with real (simulated) data: the
// cumulative blocking time of an overloaded connection grows steadily;
// its per-second first difference — the blocking rate — is flat.
// Prints both series and writes fig02.csv.
#include <cstdio>

#include "bench/bench_common.h"
#include "util/stats.h"
#include "util/csv.h"

using namespace slb;
using namespace slb::sim;

int main() {
  bench::print_header(
      "Figure 2: cumulative blocking time and blocking rate over time");

  ExperimentSpec spec;
  spec.workers = 2;
  spec.base_multiplies = 1000;
  // Connection 0 permanently 10x loaded: with an even round-robin split it
  // blocks at a steady rate.
  spec.loads.push_back({{0}, 10.0, -1.0});
  auto region = make_region(PolicyKind::kRoundRobin, spec);

  const int seconds_total =
      static_cast<int>(30 * bench::duration_scale()) + 5;
  std::vector<double> cumulative_s;
  std::vector<double> rate;
  DurationNs prev = 0;
  region->set_sample_hook([&](Region& r) {
    const DurationNs cum = r.splitter().blocked_ns()[0];
    cumulative_s.push_back(to_seconds(cum));
    rate.push_back(static_cast<double>(cum - prev) /
                   static_cast<double>(r.config().sample_period));
    prev = cum;
  });
  region->run_for(spec.scale.paper_second * seconds_total);

  CsvWriter csv(bench::results_dir() + "/fig02.csv");
  csv.header({"paper_s", "cumulative_blocked_s", "blocking_rate"});
  std::printf("  %8s %24s %16s\n", "paper_s", "cumulative blocked (s)",
              "blocking rate");
  for (std::size_t i = 0; i < cumulative_s.size(); ++i) {
    csv.row(std::vector<double>{static_cast<double>(i + 1), cumulative_s[i],
                                rate[i]});
    if ((i + 1) % 5 == 0) {
      std::printf("  %8zu %24.4f %16.3f\n", i + 1, cumulative_s[i], rate[i]);
    }
  }

  // The paper's point: cumulative climbs, the rate is stable. Report the
  // rate's spread over the second half (past warm-up).
  RunningStats stats;
  for (std::size_t i = rate.size() / 2; i < rate.size(); ++i) {
    stats.add(rate[i]);
  }
  std::printf(
      "\n  steady-state blocking rate: mean=%.3f  stddev=%.3f  "
      "(flat, as in the paper's idealized Figure 2)\n",
      stats.mean(), stats.stddev());
  std::printf("  CSV: %s/fig02.csv\n", bench::results_dir().c_str());
  return 0;
}
