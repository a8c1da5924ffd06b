// Extension: sustained overload (not in the paper).
//
// The paper's experiments are feasible by construction — some allocation
// always keeps every connection alive. This bench offers an open-loop
// source at 2x the region's capacity for the whole run and compares three
// stances (DESIGN.md §7):
//
//   * LB-adaptive + protection: saturation detector freezes the
//     controller, watermark shedding keeps the source backlog bounded,
//     the watchdog ladder backstops both;
//   * LB-adaptive, no protection: the controller keeps re-exploring a
//     gradient-free landscape and the source backlog grows without bound
//     (the "wedge": every tuple waits longer than the one before it);
//   * RR, no protection: same wedge without the controller churn.
//
// Acceptance: the protected configuration sustains >= 90% of region
// capacity as goodput with a backlog bounded by the shed watermark, while
// both unprotected runs end with backlogs that grew linearly all run.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "bench/bench_common.h"
#include "core/policies.h"
#include "obs/export.h"
#include "sim/region.h"
#include "util/time.h"

namespace slb {
namespace {

constexpr int kWorkers = 4;
constexpr DurationNs kBaseCost = micros(10);
constexpr double kOverload = 2.0;

sim::RegionConfig base_config() {
  sim::RegionConfig cfg;
  cfg.workers = kWorkers;
  cfg.base_cost = kBaseCost;
  // Small enough that splitter overhead does not mask the blocking
  // signal: aggregate blocking ~ 1 - overhead / (base_cost / workers).
  cfg.send_overhead = 200;
  cfg.sample_period = millis(5);
  // Offered rate = kOverload x the region's nominal capacity.
  cfg.source_interval = static_cast<DurationNs>(
      static_cast<double>(kBaseCost) / (kWorkers * kOverload));
  return cfg;
}

struct Outcome {
  std::string name;
  double goodput_fraction = 0.0;  // emitted rate / capacity
  std::uint64_t shed = 0;
  std::uint64_t backlog = 0;  // source backlog at end of run
  bool overload_declared = false;
};

Outcome run_one(const std::string& name, bool protect, DurationNs duration) {
  sim::RegionConfig cfg = base_config();
  ControllerConfig ctrl;
  if (protect) {
    ctrl.enable_overload_protection = true;
    cfg.protection.shed_high_watermark = 128;
    cfg.protection.shed_low_watermark = 64;
    cfg.protection.watchdog = true;
  }
  std::unique_ptr<SplitPolicy> policy;
  if (name == "RR") {
    policy = std::make_unique<RoundRobinPolicy>(kWorkers);
  } else {
    // The paper's LB-adaptive.
    policy = std::make_unique<BlockingRatePolicy>(kWorkers, ctrl);
  }
  sim::Region region(cfg, std::move(policy));

  Outcome out;
  out.name = name;
  region.set_sample_hook([&](sim::Region& r) {
    if (r.policy().overload_state().overloaded) out.overload_declared = true;
  });
  region.run_for(duration);

  const double capacity_tps =
      static_cast<double>(kWorkers) * kNanosPerSec /
      static_cast<double>(kBaseCost);
  const double goodput_tps = static_cast<double>(region.emitted()) *
                             kNanosPerSec / static_cast<double>(duration);
  out.goodput_fraction = goodput_tps / capacity_tps;
  out.shed = region.shed_tuples();
  out.backlog = region.splitter().source_backlog(region.now());

  // End-of-run registry dump (DESIGN.md §8): one cumulative snapshot per
  // configuration, appended to $SLB_METRICS_OUT as JSON lines.
  if (const char* path = std::getenv("SLB_METRICS_OUT");
      path != nullptr && *path != '\0') {
    obs::JsonlExporter exporter(&region.metrics(), path, /*append=*/true);
    if (exporter.ok()) exporter.dump(region.now());
  }
  return out;
}

}  // namespace
}  // namespace slb

int main() {
  using namespace slb;
  const DurationNs duration =
      seconds_f(2.0 * bench::duration_scale());
  bench::print_header(
      "ext: sustained 2x overload, open-loop source (goodput vs capacity)");
  std::printf("  %d workers x %.0f us/tuple; offered %.1fx capacity for"
              " %.1f s virtual\n",
              kWorkers, static_cast<double>(kBaseCost) / 1000.0, kOverload,
              to_seconds(duration));

  const Outcome results[] = {
      run_one("LB-adaptive+shed", /*protect=*/true, duration),
      run_one("LB-adaptive", /*protect=*/false, duration),
      run_one("RR", /*protect=*/false, duration),
  };

  std::printf("  %-18s %10s %12s %14s %10s\n", "policy", "goodput",
              "shed", "end backlog", "overload");
  for (const Outcome& r : results) {
    std::printf("  %-18s %9.1f%% %12llu %14llu %10s\n", r.name.c_str(),
                100.0 * r.goodput_fraction,
                static_cast<unsigned long long>(r.shed),
                static_cast<unsigned long long>(r.backlog),
                r.overload_declared ? "declared" : "-");
  }

  const Outcome& protected_run = results[0];
  const bool pass = protected_run.goodput_fraction >= 0.90 &&
                    protected_run.backlog <= 256;
  const bool wedged = results[1].backlog > 10 * 256 &&
                      results[2].backlog > 10 * 256;
  std::printf("\n  protected goodput >= 90%% with bounded backlog: %s\n",
              pass ? "yes" : "NO");
  std::printf("  unprotected runs wedged (unbounded backlog): %s\n",
              wedged ? "yes" : "NO");
  return pass && wedged ? 0 : 1;
}
