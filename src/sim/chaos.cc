#include "sim/chaos.h"

#include "util/rng.h"

namespace slb::sim {

ChaosPlan make_chaos_plan(std::uint64_t seed, DurationNs duration) {
  Rng rng(seed);
  ChaosPlan plan;
  const int workers = static_cast<int>(2 + rng.below(4));  // 2..5
  plan.region.workers = workers;
  plan.region.base_cost = micros(static_cast<long>(4 + rng.below(8)));
  plan.region.send_overhead = 500;
  plan.region.sample_period = millis(5);
  plan.region.protection.admission_control = true;
  plan.region.protection.watchdog = true;
  plan.region.protection.watchdog_periods = 6;

  if (rng.chance(0.5)) {
    // Open-loop source offered at 1.5–3x of nominal capacity, with
    // shedding armed. (Nominal capacity ignores load bursts, so bursts
    // push the region even deeper into infeasibility.)
    const double over = rng.uniform(1.5, 3.0);
    plan.region.source_interval = static_cast<DurationNs>(
        static_cast<double>(plan.region.base_cost) / (workers * over));
    const std::uint64_t high = 64 + rng.below(192);
    plan.region.protection.shed_high_watermark = high;
    plan.region.protection.shed_low_watermark = high / 2;
  }

  // Overload bursts: all workers slowed together so no reallocation can
  // restore feasibility — the saturation detector's target regime.
  plan.load = LoadProfile(workers);
  const int bursts = static_cast<int>(1 + rng.below(3));
  for (int b = 0; b < bursts; ++b) {
    const TimeNs at = static_cast<TimeNs>(rng.below(
        static_cast<std::uint64_t>(duration * 3 / 4)));
    const DurationNs len =
        millis(static_cast<long>(20 + rng.below(60)));
    const double mult = rng.uniform(2.0, 8.0);
    for (int j = 0; j < workers; ++j) {
      plan.load.add_step(j, at, mult);
      plan.load.add_step(j, at + len, 1.0);
    }
  }

  // Fault schedule: crashes with optional recovery (at most workers-1
  // permanent deaths so the run can always make progress), plus stalls.
  for (int j = 0; j < workers; ++j) {
    if (rng.chance(0.4)) {
      const TimeNs at = static_cast<TimeNs>(
          millis(10) + rng.below(static_cast<std::uint64_t>(duration / 2)));
      plan.faults.push_back({FaultKind::kWorkerCrash, j, at, 0});
      if (rng.chance(0.7) || plan.permanently_dead + 1 >= workers) {
        const TimeNs back = at + millis(static_cast<long>(
                                     20 + rng.below(80)));
        plan.faults.push_back({FaultKind::kWorkerRecover, j, back, 0});
      } else {
        ++plan.permanently_dead;
      }
    } else if (rng.chance(0.3)) {
      const TimeNs at = static_cast<TimeNs>(
          millis(5) + rng.below(static_cast<std::uint64_t>(duration / 2)));
      plan.faults.push_back({FaultKind::kChannelStall, j, at,
                             millis(static_cast<long>(5 + rng.below(20)))});
    }
  }
  return plan;
}

}  // namespace slb::sim
