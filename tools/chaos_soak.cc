// Chaos soak: seeded randomized fault + overload schedules against the
// invariants the rest of the repo promises (DESIGN.md §7).
//
// Each seed expands — through the repo's own deterministic xoshiro256++
// — into a random region shape, an external-load schedule with overload
// bursts, a crash/recover/stall schedule, and (sometimes) an open-loop
// source with shedding watermarks. The run then has to keep every
// invariant:
//
//   * conservation: every sequence number is emitted, a declared gap
//     (crash loss or shed), or demonstrably in flight;
//   * ordered prefix-with-gaps: the merger never regresses;
//   * simplex-feasible weights at every sample (non-negative, summing to
//     kWeightUnits, zero on downed channels);
//   * progress: the region keeps emitting unless every worker is dead;
//   * re-admission (rt): every scheduled restart that fires before the
//     run ends is reconnected;
//   * determinism (sim): the same seed replays to the same signature.
//
// Usage:
//   chaos_soak [--seed S] [--seeds K] [--mode sim|rt|both]
//              [--duration-ms D] [--verify-replay] [--metrics-out PATH]
//              [--delivery gap-skip|at-least-once]
//
// Runs K seeds starting at S (default 3 starting at 1) and exits
// non-zero on the first invariant violation. `--verify-replay` runs each
// sim seed twice and compares signatures. `--metrics-out` streams each
// sim run's registry as JSON lines (per-sample deltas plus an end-of-run
// snapshot, DESIGN.md §8). `--delivery at-least-once` runs the same plan
// space with replay/ack recovery armed and swaps the loss-tolerant
// invariants for the exactly-once ones (zero gaps beyond sheds, sink
// sees every sequence once; DESIGN.md §10). The short fixed-seed ctest
// variants live in tools/CMakeLists.txt.
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "core/policies.h"
#include "core/types.h"
#include "delivery/delivery.h"
#include "obs/export.h"
#include "runtime/local_region.h"
#include "sim/chaos.h"
#include "sim/region.h"
#include "util/rng.h"
#include "util/time.h"

namespace slb {
namespace {

int failures = 0;

void check(bool ok, std::uint64_t seed, const char* what) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "FAIL seed=%" PRIu64 ": %s\n", seed, what);
}

ControllerConfig protected_controller() {
  ControllerConfig cfg;
  cfg.enable_overload_protection = true;
  cfg.saturation.enter_periods = 3;
  return cfg;
}

// --- simulator soak ----------------------------------------------------

// Plan generation lives in sim/chaos.{h,cc} so the randomized invariant
// tests replay the exact same plan space; chaos_soak is now just the
// driver around it.

struct SimOutcome {
  std::vector<std::uint64_t> signature;
  bool invariants_ok = true;
};

SimOutcome run_sim_once(std::uint64_t seed, DurationNs duration,
                        const std::string& metrics_out, bool alo) {
  sim::ChaosPlan plan = sim::make_chaos_plan(seed, duration);
  if (alo) {
    plan.region.delivery.mode = delivery::DeliveryMode::kAtLeastOnce;
    plan.region.delivery.ack_stall_periods = 6;
  }
  const int workers = plan.region.workers;
  sim::Region region(plan.region,
                     std::make_unique<LoadBalancingPolicy>(
                         workers, protected_controller()),
                     plan.load);
  for (const sim::FaultEvent& f : plan.faults) region.inject_fault(f);

  std::unique_ptr<obs::JsonlExporter> exporter;
  if (!metrics_out.empty()) {
    // One file per run, appended across seeds: per-sample deltas plus an
    // end-of-run snapshot.
    exporter = std::make_unique<obs::JsonlExporter>(
        &region.metrics(), metrics_out, /*append=*/true);
    if (!exporter->ok()) {
      std::fprintf(stderr, "chaos soak: cannot open %s\n",
                   metrics_out.c_str());
      exporter.reset();
    }
  }

  SimOutcome out;
  std::uint64_t prev_gaps = 0;
  bool weights_ok = true;
  bool gaps_monotone = true;
  region.set_sample_hook([&](sim::Region& r) {
    const WeightVector& w = r.policy().weights();
    Weight sum = 0;
    for (Weight x : w) {
      if (x < 0) weights_ok = false;
      sum += x;
    }
    if (sum != kWeightUnits) weights_ok = false;
    const std::uint64_t gaps = r.merger().gaps();
    if (gaps < prev_gaps) gaps_monotone = false;
    prev_gaps = gaps;
    if (exporter) exporter->tick(r.now());
  });

  std::uint64_t emitted_mid = 0;
  region.start();
  region.run_for(duration / 2);
  emitted_mid = region.emitted();
  region.run_for(duration - duration / 2);
  if (exporter) exporter->dump(region.now());

  check(weights_ok, seed, "sim: weights left the simplex");
  check(gaps_monotone, seed, "sim: merger gap count regressed");

  // Conservation: every *sent* tuple is emitted, lost to a crash, or
  // demonstrably somewhere in the region right now. Shed tuples never
  // entered a channel; they consumed sequence numbers and surface as
  // merger gaps instead.
  std::uint64_t in_flight = 0;
  int live = 0;
  for (int j = 0; j < workers; ++j) {
    in_flight += region.channel(j).occupancy();
    in_flight += region.merger().queue_size(j);
    if (region.worker(j).busy()) ++in_flight;
    if (region.worker(j).holding()) ++in_flight;
    if (!region.worker(j).down()) ++live;
  }
  // Replays parked in the merger's out-of-order pool are in flight but
  // invisible to queue_size (always zero under GapSkip).
  in_flight += region.merger().pooled();
  if (alo) {
    // Transmission-space conservation (DESIGN.md §10): every push into a
    // channel — fresh or replayed — is released, a discarded duplicate /
    // late arrival, lost with a crash (replay queues hold copies of lost
    // transmissions, so they are not a separate term), or in flight.
    check(region.splitter().total_sent() + region.splitter().retransmits() ==
              region.emitted() + region.lost_tuples() +
              region.merger().dup_discards() +
              region.merger().late_discards() + in_flight,
          seed,
          "sim: ALO conservation (sent + retransmits == emitted + "
          "discards + lost + in-flight)");
    // Exactly-once at the sink: the only declared gaps are sheds.
    check(region.merger().gaps() <= region.shed_tuples(), seed,
          "sim: ALO lost sequences (gaps beyond sheds)");
  } else {
    check(region.splitter().total_sent() ==
              region.emitted() + region.lost_tuples() + in_flight,
          seed, "sim: conservation (sent == emitted + lost + in-flight)");
    check(region.merger().gaps() <=
              region.lost_tuples() + region.shed_tuples(),
          seed, "sim: gaps exceed declared losses + sheds");
  }
  check(region.emitted() > 0, seed, "sim: nothing emitted at all");
  if (live > 0) {
    check(region.emitted() > emitted_mid, seed,
          "sim: no progress in the second half despite live workers");
  }

  out.invariants_ok = failures == 0;
  out.signature.push_back(region.emitted());
  out.signature.push_back(region.splitter().total_sent());
  out.signature.push_back(region.shed_tuples());
  out.signature.push_back(region.lost_tuples());
  out.signature.push_back(region.merger().gaps());
  out.signature.push_back(region.splitter().failovers());
  out.signature.push_back(region.splitter().retransmits());
  out.signature.push_back(region.merger().dup_discards());
  out.signature.push_back(
      static_cast<std::uint64_t>(region.watchdog_stage()));
  for (int j = 0; j < workers; ++j) {
    out.signature.push_back(region.splitter().sent(j));
    out.signature.push_back(region.worker(j).processed());
    out.signature.push_back(
        static_cast<std::uint64_t>(region.policy().weights()[j]));
  }
  return out;
}

void run_sim_seed(std::uint64_t seed, DurationNs duration,
                  bool verify_replay, const std::string& metrics_out,
                  bool alo) {
  const SimOutcome first = run_sim_once(seed, duration, metrics_out, alo);
  if (verify_replay) {
    const SimOutcome second =
        run_sim_once(seed, duration, metrics_out, alo);
    check(first.signature == second.signature, seed,
          "sim: replay diverged (same seed, different signature)");
  }
  std::printf("  sim  seed=%-6" PRIu64 " emitted=%-9" PRIu64
              " shed=%-7" PRIu64 " lost=%-5" PRIu64 " gaps=%-7" PRIu64
              " %s\n",
              seed, first.signature[0], first.signature[2],
              first.signature[3], first.signature[4],
              failures == 0 ? "ok" : "FAIL");
}

// --- runtime soak ------------------------------------------------------

void run_rt_seed(std::uint64_t seed, DurationNs duration, bool alo) {
  Rng rng(seed);
  rt::LocalRegionConfig cfg;
  if (alo) {
    cfg.delivery.mode = delivery::DeliveryMode::kAtLeastOnce;
    cfg.delivery.ack_stall_periods = 6;
  }
  const int workers = static_cast<int>(2 + rng.below(3));  // 2..4
  cfg.workers = workers;
  cfg.multiplies = 2000;
  cfg.work_mode = rt::WorkMode::kTimed;
  cfg.payload_bytes = 32;
  cfg.sample_period = millis(50);
  cfg.protection.admission_control = true;
  cfg.protection.watchdog = true;
  cfg.protection.watchdog_periods = 4;

  std::uint64_t expected_kills = 0;
  std::uint64_t expected_restarts = 0;
  if (rng.chance(0.7)) {
    const int victim = static_cast<int>(rng.below(workers));
    const DurationNs at =
        millis(static_cast<long>(150 + rng.below(300)));
    cfg.failure_events.push_back({at, victim, /*restart=*/false});
    ++expected_kills;
    if (rng.chance(0.7)) {
      const DurationNs restart_at =
          at + millis(static_cast<long>(250 + rng.below(250)));
      cfg.failure_events.push_back({restart_at, victim, /*restart=*/true});
      if (restart_at < duration) ++expected_restarts;
    }
  }
  // Overload burst: every worker slowed together for a stretch.
  if (rng.chance(0.8)) {
    const DurationNs at =
        millis(static_cast<long>(100 + rng.below(200)));
    const DurationNs until =
        at + millis(static_cast<long>(200 + rng.below(300)));
    const double mult = rng.uniform(3.0, 8.0);
    for (int j = 0; j < workers; ++j) {
      cfg.load_events.push_back({at, j, mult});
      cfg.load_events.push_back({until, j, 1.0});
    }
  }
  if (rng.chance(0.5)) {
    // Open loop at ~2x nominal capacity (kTimed: 1 ns per multiply),
    // with shedding armed.
    cfg.source_interval = static_cast<DurationNs>(
        cfg.multiplies / (2.0 * workers));
    cfg.protection.shed_high_watermark = 256;
    cfg.protection.shed_low_watermark = 128;
  }

  rt::LocalRegion region(
      cfg, std::make_unique<LoadBalancingPolicy>(workers,
                                                 protected_controller()));
  bool weights_ok = true;
  region.set_sample_hook([&](const rt::LocalSample& s) {
    Weight sum = 0;
    for (Weight x : s.weights) {
      if (x < 0) weights_ok = false;
      sum += x;
    }
    if (sum != kWeightUnits) weights_ok = false;
  });
  const rt::LocalRunStats stats = region.run(duration);

  check(stats.order_ok, seed,
        "rt: order/conservation violated (emitted + gaps != sent + shed "
        "or out-of-order emission)");
  check(stats.emitted + stats.gaps == stats.sent + stats.shed, seed,
        "rt: emitted + gaps != sent + shed");
  check(weights_ok, seed, "rt: weights left the simplex");
  check(stats.emitted > 0, seed, "rt: nothing emitted at all");
  check(stats.channel_failures >= expected_kills, seed,
        "rt: scheduled kill not observed as a channel failure");
  check(stats.reconnects >= expected_restarts, seed,
        "rt: scheduled restart not re-admitted before the run ended");
  if (alo) {
    // Exactly-once at the sink: no sequence lost (the only gaps are
    // sheds, which never entered a channel) and no duplicate released —
    // order_ok above already proves strict order, and every duplicate
    // the replays manufactured was discarded before release.
    check(stats.gaps == stats.shed, seed,
          "rt: ALO lost sequences (gaps beyond sheds)");
    check(stats.emitted == stats.sent, seed,
          "rt: ALO sink missed or duplicated sequences");
    check(stats.dup_discards <= stats.retransmits, seed,
          "rt: more duplicates discarded than frames retransmitted");
  }
  std::printf("  rt   seed=%-6" PRIu64 " sent=%-9" PRIu64 " emitted=%-9"
              PRIu64 " shed=%-7" PRIu64 " gaps=%-5" PRIu64 " retx=%-5"
              PRIu64 " %s\n",
              seed, stats.sent, stats.emitted, stats.shed, stats.gaps,
              stats.retransmits, failures == 0 ? "ok" : "FAIL");
}

}  // namespace
}  // namespace slb

int main(int argc, char** argv) {
  std::uint64_t seed = 1;
  int seeds = 3;
  std::string mode = "both";
  long duration_ms = 0;  // 0 = per-mode default
  bool verify_replay = false;
  std::string metrics_out;
  std::string delivery = "gap-skip";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // Accept both "--flag value" and "--flag=value" spellings.
    std::string inline_value;
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      inline_value = arg.substr(eq + 1);
      arg.resize(eq);
    }
    auto value = [&]() -> std::string {
      if (!inline_value.empty()) return inline_value;
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--delivery") {
      delivery = value();
    } else if (arg == "--seed") {
      seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seeds") {
      seeds = std::atoi(value().c_str());
    } else if (arg == "--mode") {
      mode = value();
    } else if (arg == "--duration-ms") {
      duration_ms = std::atol(value().c_str());
    } else if (arg == "--verify-replay") {
      verify_replay = true;
    } else if (arg == "--metrics-out") {
      metrics_out = value();
    } else {
      std::fprintf(stderr,
                   "usage: chaos_soak [--seed S] [--seeds K] "
                   "[--mode sim|rt|both] [--duration-ms D] "
                   "[--verify-replay] [--metrics-out PATH] "
                   "[--delivery gap-skip|at-least-once]\n");
      return 2;
    }
  }
  const bool alo = delivery == "at-least-once";
  if (!alo && delivery != "gap-skip") {
    std::fprintf(stderr, "chaos soak: unknown --delivery '%s'\n",
                 delivery.c_str());
    return 2;
  }

  std::printf("chaos soak: %d seed(s) from %" PRIu64 ", mode=%s, "
              "delivery=%s%s\n",
              seeds, seed, mode.c_str(),
              alo ? "at-least-once" : "gap-skip",
              verify_replay ? ", replay-verified" : "");
  for (int k = 0; k < seeds; ++k) {
    const std::uint64_t s = seed + static_cast<std::uint64_t>(k);
    if (mode == "sim" || mode == "both") {
      slb::run_sim_seed(
          s, slb::millis(duration_ms > 0 ? duration_ms : 400),
          verify_replay, metrics_out, alo);
    }
    if (mode == "rt" || mode == "both") {
      slb::run_rt_seed(
          s, slb::millis(duration_ms > 0 ? duration_ms : 1200), alo);
    }
  }
  if (slb::failures > 0) {
    std::fprintf(stderr, "chaos soak: %d invariant violation(s)\n",
                 slb::failures);
    return 1;
  }
  std::printf("chaos soak: all invariants held\n");
  return 0;
}
