// Ablation: buffer sizing and where the system blocks.
//
//   1. Channel (TCP) buffer depth: deeper buffers make blocking rarer and
//      later (the Section 4.4 "late indicator" effect); shallower buffers
//      sharpen the signal but cost smoothing.
//   2. Merger model: eager/unbounded (the paper's implementation, blocks
//      at the splitter) vs bounded reorder queues (block at the merger) —
//      the alternative the paper notes would be "equally correct".
//
// Scenario: 4 PEs, 1,000-multiply tuples, one PE 10x loaded (static);
// LB-adaptive. Reported: mean throughput and the share of blocking time
// observed on the loaded connection (signal concentration).
#include <cstdio>
#include <span>

#include "bench/bench_common.h"
#include "util/csv.h"

using namespace slb;
using namespace slb::sim;

namespace {

struct Result {
  double mean_tput_mtps = 0.0;
  double loaded_block_share = 0.0;
  Weight final_w0 = 0;
};

Result run(std::size_t channel_buf, std::size_t merge_buf,
           double duration_s) {
  ExperimentSpec spec;
  spec.workers = 4;
  spec.base_multiplies = 1000;
  spec.duration_paper_s = duration_s;
  spec.loads.push_back({{0}, 10.0, -1.0});

  RegionConfig cfg = build_region_config(spec);
  cfg.channel_buffer = channel_buf;
  cfg.merge_buffer = merge_buf;
  Region region(cfg, make_policy(PolicyKind::kLbAdaptive, spec),
                build_load_profile(spec), spec.hosts);

  // Signal concentration is an *early* property: measure the loaded
  // connection's share of blocking over the first 10 periods, before the
  // controller has reshaped the weights.
  Result result;
  int periods = 0;
  region.set_sample_hook([&](Region& r) {
    if (++periods != 10) return;
    const std::span<const DurationNs> blocked = r.splitter().blocked_ns();
    DurationNs total = 0;
    for (DurationNs b : blocked) total += b;
    result.loaded_block_share =
        total > 0
            ? static_cast<double>(blocked[0]) / static_cast<double>(total)
            : 0.0;
  });
  region.run_for(spec.scale.from_paper_seconds(duration_s));

  const double virtual_s =
      duration_s * static_cast<double>(spec.scale.paper_second) / 1e9;
  result.mean_tput_mtps =
      static_cast<double>(region.emitted()) / virtual_s / 1e6;
  result.final_w0 = region.policy().weights()[0];
  return result;
}

}  // namespace

int main() {
  const double duration_s = 150 * bench::duration_scale();
  CsvWriter csv(bench::results_dir() + "/ablation_buffers.csv");
  csv.header({"channel_buffer", "merger", "mean_tput_mtps",
              "loaded_block_share", "final_w0"});

  bench::print_header(
      "Ablation: channel buffer depth (eager merger; 4 PEs, one 10x "
      "loaded, LB-adaptive)");
  std::printf("  %-10s %16s %22s %10s\n", "buffer", "mean tput (M/s)",
              "block share on loaded", "final w0");
  for (std::size_t buf : {4u, 8u, 16u, 32u, 64u, 128u}) {
    const Result r = run(buf, 0, duration_s);
    std::printf("  %-10zu %16.3f %22.2f %10d\n", buf, r.mean_tput_mtps,
                r.loaded_block_share, r.final_w0);
    csv.row({std::to_string(buf), "eager",
             CsvWriter::format(r.mean_tput_mtps),
             CsvWriter::format(r.loaded_block_share),
             std::to_string(r.final_w0)});
  }

  bench::print_header(
      "Ablation: merger model (channel buffer 32) — blocking location "
      "changes the signal");
  std::printf("  %-18s %16s %22s %10s\n", "merger", "mean tput (M/s)",
              "block share on loaded", "final w0");
  for (std::size_t merge : {std::size_t{0}, std::size_t{256},
                            std::size_t{64}, std::size_t{16}}) {
    const Result r = run(32, merge, duration_s);
    const std::string name =
        merge == 0 ? "eager (paper)" : "bounded(" + std::to_string(merge) + ")";
    std::printf("  %-18s %16.3f %22.2f %10d\n", name.c_str(),
                r.mean_tput_mtps, r.loaded_block_share, r.final_w0);
    csv.row({name, std::to_string(merge),
             CsvWriter::format(r.mean_tput_mtps),
             CsvWriter::format(r.loaded_block_share),
             std::to_string(r.final_w0)});
  }
  std::printf(
      "\n  reading: the eager merger concentrates blocking on the loaded "
      "connection (high share -> strong signal -> low final w0); tightly "
      "bounded mergers smear it.\n");
  std::printf("  CSV: %s/ablation_buffers.csv\n",
              bench::results_dir().c_str());
  return 0;
}
