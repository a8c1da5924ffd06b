// Extension study: worker failure, degraded operation, and recovery.
//
// The paper assumes workers stay up; this bench measures what its
// mechanism does when one does not. A 4-PE region loses one worker a
// third of the way through the run and gets a stateless replacement at
// two thirds:
//
//   * LB-adaptive reacts through the same machinery it uses for load —
//     the dead connection is pinned to weight 0 and the freed weight is
//     redistributed over survivors; on recovery, geometric step-up
//     probing re-admits the connection without trusting it blindly.
//   * RR keeps naming the dead connection; the splitter's transport
//     failover re-routes those picks, so RR survives but keeps paying a
//     scan per routed tuple and never rebalances the merge gating.
//
// Reported: a per-paper-second throughput timeline around the fault
// window (the dip and the climb back), plus totals: emitted, tuples lost
// with the crash (= merger gaps), and transport failovers.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "util/csv.h"

using namespace slb;
using namespace slb::sim;

namespace {

struct FaultRun {
  std::vector<std::uint64_t> per_second;  // emitted per paper second
  std::uint64_t emitted = 0;
  std::uint64_t lost = 0;
  std::uint64_t gaps = 0;
  std::uint64_t failovers = 0;
  bool overload_declared = false;
  WeightVector mid_crash_weights;  // snapshot halfway through the outage
  WeightVector final_weights;
};

FaultRun run(PolicyKind kind, double duration_s, double crash_s,
             double recover_s, bool safe_mode_fallback = false) {
  ExperimentSpec spec;
  spec.workers = 4;
  spec.base_multiplies = 1000;
  spec.duration_paper_s = duration_s;
  if (safe_mode_fallback) {
    // Overload-protected variant (DESIGN.md §7): the closed-loop source
    // keeps this region saturated, so the detector declares overload and
    // a crash then snaps the survivors to an even WRR split instead of
    // re-optimizing against saturated (gradient-free) rate functions.
    spec.controller.enable_overload_protection = true;
  }
  spec.faults.push_back({FaultKind::kWorkerCrash, 1, crash_s, 0.0});
  spec.faults.push_back({FaultKind::kWorkerRecover, 1, recover_s, 0.0});

  auto region = make_region(kind, spec);
  FaultRun out;
  const std::size_t mid_crash_sample =
      static_cast<std::size_t>((crash_s + recover_s) / 2.0);
  region->set_sample_hook([&out, mid_crash_sample](Region& r) {
    out.per_second.push_back(r.emitted_last_period());
    out.overload_declared =
        out.overload_declared || r.policy().overload_state().overloaded;
    if (out.per_second.size() == mid_crash_sample) {
      out.mid_crash_weights = r.policy().weights();
    }
  });
  region->run_for(spec.scale.from_paper_seconds(duration_s));
  out.emitted = region->emitted();
  out.lost = region->lost_tuples();
  out.gaps = region->merger().gaps();
  out.failovers = region->splitter().failovers();
  out.final_weights = region->policy().weights();
  return out;
}

void print_timeline(const char* name, const FaultRun& r, double crash_s,
                    double recover_s) {
  // Down-sample the timeline to ~30 buckets so the dip is readable.
  const std::size_t n = r.per_second.size();
  const std::size_t bucket = n > 30 ? n / 30 : 1;
  std::uint64_t peak = 1;
  for (std::uint64_t v : r.per_second) peak = std::max(peak, v);
  std::printf("  %s throughput timeline (each row ~%zu paper s, # = "
              "relative tput; crash at %.0fs, recover at %.0fs):\n",
              name, bucket, crash_s, recover_s);
  for (std::size_t i = 0; i < n; i += bucket) {
    std::uint64_t sum = 0;
    std::size_t count = 0;
    for (std::size_t k = i; k < std::min(i + bucket, n); ++k, ++count) {
      sum += r.per_second[k];
    }
    const double mean = static_cast<double>(sum) /
                        static_cast<double>(count == 0 ? 1 : count);
    const int bars = static_cast<int>(
        40.0 * mean / static_cast<double>(peak) + 0.5);
    std::printf("    t=%4zus |%.*s\n", i, bars,
                "########################################");
  }
}

}  // namespace

int main() {
  const double duration_s = 120 * bench::duration_scale();
  const double crash_s = duration_s / 3.0;
  const double recover_s = 2.0 * duration_s / 3.0;

  bench::print_header(
      "Extension: worker failure and recovery (4 PEs, PE 1 down for the "
      "middle third)");
  CsvWriter csv(bench::results_dir() + "/ext_failure.csv");
  csv.header({"policy", "emitted", "lost", "gaps", "failovers", "w0", "w1",
              "w2", "w3"});

  struct Alt {
    const char* name;
    PolicyKind kind;
    bool safe_mode_fallback;
  };
  const Alt alts[] = {
      {"LB-adaptive", PolicyKind::kLbAdaptive, false},
      {"RR", PolicyKind::kRoundRobin, false},
      // Crash-during-overload variant: protection declares saturation on
      // this closed-loop source, so the fault falls back to an even split
      // over the survivors (weights pinned ~333 each while PE 1 is down).
      {"LB+safe-mode", PolicyKind::kLbAdaptive, true},
  };

  std::printf("  %-12s %12s %8s %8s %10s %24s\n", "policy", "emitted",
              "lost", "gaps", "failovers", "final weights");
  std::vector<FaultRun> runs;
  for (const Alt& alt : alts) {
    FaultRun r = run(alt.kind, duration_s, crash_s, recover_s,
                     alt.safe_mode_fallback);
    std::printf("  %-12s %12llu %8llu %8llu %10llu      %4d %4d %4d %4d\n",
                alt.name,
                static_cast<unsigned long long>(r.emitted),
                static_cast<unsigned long long>(r.lost),
                static_cast<unsigned long long>(r.gaps),
                static_cast<unsigned long long>(r.failovers),
                r.final_weights[0], r.final_weights[1], r.final_weights[2],
                r.final_weights[3]);
    csv.row({std::string(alt.name), std::to_string(r.emitted),
             std::to_string(r.lost), std::to_string(r.gaps),
             std::to_string(r.failovers),
             std::to_string(r.final_weights[0]),
             std::to_string(r.final_weights[1]),
             std::to_string(r.final_weights[2]),
             std::to_string(r.final_weights[3])});
    runs.push_back(std::move(r));
  }
  std::printf("\n");
  print_timeline("LB-adaptive", runs[0], crash_s, recover_s);
  std::printf("\n  Every lost tuple is accounted for as a merger gap "
              "(ordered output stays a clean prefix-with-gaps):\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    std::printf("    %-12s lost=%llu gaps=%llu\n", alts[i].name,
                static_cast<unsigned long long>(runs[i].lost),
                static_cast<unsigned long long>(runs[i].gaps));
  }
  std::printf("\n  Crash-during-overload fallback (DESIGN.md §7): mid-"
              "outage weights\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const WeightVector& w = runs[i].mid_crash_weights;
    if (w.size() < 4) continue;
    const bool fell_back =
        alts[i].safe_mode_fallback && runs[i].overload_declared;
    std::printf("    %-12s declared=%-3s [%4d %4d %4d %4d]%s\n",
                alts[i].name, runs[i].overload_declared ? "yes" : "no",
                w[0], w[1], w[2], w[3],
                fell_back ? "  <- even split over survivors" : "");
  }
  return 0;
}
