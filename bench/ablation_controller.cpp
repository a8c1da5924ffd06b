// Ablation: the controller design choices DESIGN.md calls out.
//
//   1. Exploration decay factor (1.0 = LB-static ... 0.5 = aggressive):
//      recovery speed after load removal vs stability under static load.
//   2. Zero-observation sample weight: the paper records data only for
//      connections that blocked; we optionally also record "no blocking
//      at weight w" with a small weight.
//
// Scenario for both: 4 PEs, 1,000-multiply tuples, two PEs 10x
// loaded until t/4. Reported: final throughput (recovery quality) and
// time-averaged throughput (overall cost of the choice).
#include <cstdio>

#include "bench/bench_common.h"
#include "util/csv.h"

using namespace slb;
using namespace slb::sim;

namespace {

struct AblationResult {
  double mean_tput_mtps = 0.0;
  double final_tput_mtps = 0.0;
  WeightVector final_weights;
};

AblationResult run(ControllerConfig cc, double duration_s) {
  ExperimentSpec spec;
  spec.workers = 4;
  spec.base_multiplies = 1000;
  spec.duration_paper_s = duration_s;
  spec.controller = cc;
  spec.loads.push_back({{0, 1}, 10.0, duration_s / 4.0});

  // The ablated knobs belong to the paper's blocking-rate rule. Force the
  // adaptive path even when decay == 1.0 (that IS the ablation).
  auto policy = std::make_unique<BlockingRatePolicy>(spec.workers, cc);
  Region region(build_region_config(spec), std::move(policy),
                build_load_profile(spec), spec.hosts);

  AblationResult result;
  std::vector<std::uint64_t> per_period;
  region.set_sample_hook(
      [&](Region& r) { per_period.push_back(r.emitted_last_period()); });
  region.run_for(spec.scale.from_paper_seconds(duration_s));

  const double period_s =
      static_cast<double>(spec.scale.paper_second) / 1e9;
  double total = 0;
  for (std::uint64_t v : per_period) total += static_cast<double>(v);
  result.mean_tput_mtps =
      total / (static_cast<double>(per_period.size()) * period_s) / 1e6;
  double tail = 0;
  const std::size_t tail_n = per_period.size() / 10;
  for (std::size_t i = per_period.size() - tail_n; i < per_period.size();
       ++i) {
    tail += static_cast<double>(per_period[i]);
  }
  result.final_tput_mtps =
      tail / (static_cast<double>(tail_n) * period_s) / 1e6;
  result.final_weights = region.policy().weights();
  return result;
}

}  // namespace

int main() {
  const double duration_s = 240 * bench::duration_scale();
  CsvWriter csv(bench::results_dir() + "/ablation_controller.csv");
  csv.header({"knob", "value", "mean_tput_mtps", "final_tput_mtps"});

  bench::print_header(
      "Ablation 1: exploration decay factor (4 PEs, 10x load on half "
      "until t/4)");
  std::printf("  %-8s %18s %18s\n", "decay", "mean tput (M/s)",
              "final tput (M/s)");
  for (double decay : {1.0, 0.95, 0.9, 0.8, 0.5}) {
    ControllerConfig cc;
    cc.decay_factor = decay;
    const AblationResult r = run(cc, duration_s);
    std::printf("  %-8.2f %18.3f %18.3f\n", decay, r.mean_tput_mtps,
                r.final_tput_mtps);
    csv.row({"decay", CsvWriter::format(decay),
             CsvWriter::format(r.mean_tput_mtps),
             CsvWriter::format(r.final_tput_mtps)});
  }

  bench::print_header("Ablation 2: zero-observation sample weight");
  std::printf("  %-8s %18s %18s\n", "weight", "mean tput (M/s)",
              "final tput (M/s)");
  for (double zw : {0.0, 0.1, 0.25, 0.5, 1.0}) {
    ControllerConfig cc;
    cc.zero_sample_weight = zw;
    const AblationResult r = run(cc, duration_s);
    std::printf("  %-8.2f %18.3f %18.3f\n", zw, r.mean_tput_mtps,
                r.final_tput_mtps);
    csv.row({"zero_weight", CsvWriter::format(zw),
             CsvWriter::format(r.mean_tput_mtps),
             CsvWriter::format(r.final_tput_mtps)});
  }

  std::printf("\n  CSV: %s/ablation_controller.csv\n",
              bench::results_dir().c_str());
  return 0;
}
