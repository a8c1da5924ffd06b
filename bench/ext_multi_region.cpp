// Extension study: cluster-wide behavior from purely local controllers
// (the paper's Section 8 future work).
//
// Two applications share two 4-thread hosts. App A (the measured one)
// has 4 workers split across both hosts. App B runs 4 workers on host 0
// only and bursts 100x-heavy tuples during the middle third of the run.
//
// Compared: app A under RR vs LB-adaptive, with and without the
// co-tenant burst. Reported per phase: app A throughput, plus A's weight
// split across hosts over time.
#include <cstdio>
#include <memory>

#include "bench/bench_common.h"
#include "sim/shared_host.h"
#include "util/csv.h"

using namespace slb;
using namespace slb::sim;

namespace {

RegionConfig region_config(int workers, DurationNs base_cost) {
  RegionConfig cfg;
  cfg.workers = workers;
  cfg.base_cost = base_cost;
  cfg.sample_period = millis(10);
  cfg.channel_buffer = 32;
  return cfg;
}

struct PhaseStats {
  double before = 0;  // tuples/s while co-tenant quiet (first third)
  double during = 0;  // tuples/s during the burst (middle third)
  double after = 0;   // tuples/s after recovery (last third)
};

PhaseStats run(bool lb, bool burst, double total_paper_s, CsvWriter* csv) {
  Simulator sim;
  SharedHostSet hosts({{1.0, 4}, {1.0, 4}});

  std::unique_ptr<SplitPolicy> policy;
  if (lb) {
    policy = std::make_unique<BlockingRatePolicy>(4);
  } else {
    policy = std::make_unique<RoundRobinPolicy>(4);
  }
  Region app_a(region_config(4, micros(10)), std::move(policy),
               LoadProfile{}, HostModel{}, &sim,
               SharedPlacement{&hosts, {0, 0, 1, 1}});

  // App B is *open loop*: its source produces 20K tuples/s regardless of
  // cost. Quiet phases (2 us tuples) leave host 0 almost idle; the burst
  // (200 us tuples) demands 4 fully-busy workers on host 0.
  LoadProfile b_load(4);
  const TimeNs third = millis(10) * static_cast<TimeNs>(total_paper_s / 3);
  if (burst) {
    for (int w = 0; w < 4; ++w) {
      b_load.add_step(w, third, 100.0);
      b_load.add_step(w, 2 * third, 1.0);
    }
  }
  RegionConfig b_cfg = region_config(4, micros(2));
  b_cfg.source_interval = micros(50);  // 20K tuples/s offered load
  Region app_b(b_cfg, std::make_unique<RoundRobinPolicy>(4),
               std::move(b_load), HostModel{}, &sim,
               SharedPlacement{&hosts, {0, 0, 0, 0}});

  app_a.start();
  app_b.start();

  std::uint64_t marks[4] = {0, 0, 0, 0};
  for (int phase = 1; phase <= 3; ++phase) {
    sim.run_until(third * phase);
    marks[phase] = app_a.emitted();
    if (csv != nullptr) {
      const WeightVector& w = app_a.policy().weights();
      csv->row({lb ? "LB" : "RR", burst ? "burst" : "quiet",
                std::to_string(phase), std::to_string(w[0] + w[1]),
                std::to_string(w[2] + w[3]),
                std::to_string(marks[phase] - marks[phase - 1])});
    }
  }
  const double third_s = static_cast<double>(third) / 1e9;
  return PhaseStats{
      static_cast<double>(marks[1] - marks[0]) / third_s,
      static_cast<double>(marks[2] - marks[1]) / third_s,
      static_cast<double>(marks[3] - marks[2]) / third_s,
  };
}

}  // namespace

int main() {
  const double total_paper_s = 300 * bench::duration_scale();
  CsvWriter csv(bench::results_dir() + "/ext_multi_region.csv");
  csv.header({"policy", "cotenant", "phase", "a_weight_host0",
              "a_weight_host1", "a_emitted_in_phase"});

  bench::print_header(
      "Extension: two applications sharing hosts (Section 8 future "
      "work). App B bursts 100x on host 0 during the middle third.");
  std::printf("  %-14s %16s %16s %16s\n", "app A policy",
              "tput before (K/s)", "during burst", "after");
  for (const bool burst : {true}) {
    for (const bool lb : {false, true}) {
      const PhaseStats s = run(lb, burst, total_paper_s, &csv);
      std::printf("  %-14s %16.1f %16.1f %16.1f\n",
                  lb ? "LB-adaptive" : "RR", s.before / 1e3, s.during / 1e3,
                  s.after / 1e3);
    }
  }
  const PhaseStats baseline = run(true, false, total_paper_s, nullptr);
  std::printf("  %-14s %16.1f %16.1f %16.1f   (no co-tenant burst)\n",
              "LB, quiet B", baseline.before / 1e3, baseline.during / 1e3,
              baseline.after / 1e3);
  std::printf(
      "\n  reading: under RR, app A is dragged to its host-0 workers' "
      "contended speed for the whole burst; LB-adaptive shifts to host 1 "
      "mid-burst and returns afterward — cluster-level adaptation from "
      "purely local blocking-rate control.\n");
  std::printf("  CSV: %s/ext_multi_region.csv\n",
              bench::results_dir().c_str());
  return 0;
}
