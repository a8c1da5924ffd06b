// Control-plane parity across substrates (DESIGN.md §9).
//
// The whole point of control::RegionControlLoop is that sim::Region and
// rt::LocalRegion are thin adapters around ONE decision pipeline, and
// that a flow::Pipeline parallel stage is a sim::Region built from the
// pipeline's config. These tests prove it: identical seeded blocking
// traces fed through tick() into a standalone region's loop, a flow
// stage region's loop and a runtime region's loop (and into a bare loop)
// must produce byte-identical decision journals — same
// policy updates, same overload declarations, same watchdog
// transitions, same per-tick control lines.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "control/region_control.h"
#include "core/controller.h"
#include "core/policies.h"
#include "flow/pipeline.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "runtime/local_region.h"
#include "sim/region.h"
#include "util/time.h"

namespace slb {
namespace {

constexpr int kChannels = 4;
constexpr DurationNs kSpan = millis(10);
constexpr int kPeriods = 90;

/// Deterministic per-period cumulative-blocked trace: a quiet warmup, a
/// long saturated plateau (even rates, aggregate ~0.95 — enough to
/// declare overload and walk the watchdog ladder), then calm (enough to
/// unwind it). Jitter comes from a seeded xorshift so every substrate
/// sees the exact same bytes.
std::vector<std::vector<DurationNs>> make_trace(std::uint64_t seed) {
  std::uint64_t state = seed;
  const auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  std::vector<std::vector<DurationNs>> trace;
  std::vector<DurationNs> cumulative(kChannels, 0);
  for (int p = 0; p < kPeriods; ++p) {
    for (int j = 0; j < kChannels; ++j) {
      double rate;
      if (p < 20) {
        rate = 0.05 + 0.02 * static_cast<double>(j);  // mild, uneven
      } else if (p < 60) {
        rate = 0.23 + 0.005 * static_cast<double>(next() % 4);  // saturated
      } else {
        rate = 0.01 + 0.005 * static_cast<double>(next() % 3);  // calm
      }
      cumulative[static_cast<std::size_t>(j)] +=
          static_cast<DurationNs>(rate * static_cast<double>(kSpan));
    }
    trace.push_back(cumulative);
  }
  return trace;
}

control::ProtectionConfig parity_protection() {
  control::ProtectionConfig prot;
  prot.admission_control = true;
  prot.shed_high_watermark = 128;
  prot.shed_low_watermark = 64;
  prot.watchdog = true;
  prot.watchdog_periods = 4;
  return prot;
}

ControllerConfig parity_controller() {
  ControllerConfig cfg;
  cfg.enable_overload_protection = true;
  return cfg;
}

std::unique_ptr<LoadBalancingPolicy> parity_policy() {
  return std::make_unique<LoadBalancingPolicy>(kChannels,
                                               parity_controller());
}

/// Feeds the trace into `loop` with a fresh journal attached; returns
/// the journal contents.
obs::DecisionJournal drive(control::RegionControlLoop& loop,
                           const std::vector<std::vector<DurationNs>>& trace) {
  obs::DecisionJournal journal;
  loop.set_journal(&journal);
  loop.set_journal_ticks(true);
  for (int p = 0; p < static_cast<int>(trace.size()); ++p) {
    loop.tick((p + 1) * kSpan, kSpan, trace[static_cast<std::size_t>(p)], {});
  }
  loop.set_journal(nullptr);
  return journal;
}

void expect_byte_identical(const obs::DecisionJournal& a,
                           const obs::DecisionJournal& b,
                           const char* label) {
  ASSERT_EQ(a.entries(), b.entries()) << label;
  for (std::size_t i = 0; i < a.entries(); ++i) {
    ASSERT_EQ(a.lines()[i], b.lines()[i])
        << label << ": first divergence at line " << i;
  }
  EXPECT_EQ(a.digest(), b.digest()) << label;
}

TEST(ControlParity, IdenticalTracesProduceByteIdenticalJournals) {
  const auto trace = make_trace(/*seed=*/0x5EEDu);
  const control::ProtectionConfig prot = parity_protection();

  // Reference: a bare loop, attached to no substrate.
  auto ref_policy = parity_policy();
  obs::MetricsRegistry ref_metrics;
  control::RegionControlLoop reference(kChannels, ref_policy.get(), prot,
                                       /*source_interval=*/0, {},
                                       ref_metrics);
  const obs::DecisionJournal ref_journal = drive(reference, trace);

  // The trace must be non-trivial: it has to exercise overload
  // declaration and the full watchdog ladder, or parity proves nothing.
  ASSERT_GT(ref_journal.entries(), 0u);
  bool escalated = false;
  bool unwound = false;
  for (const std::string& line : ref_journal.lines()) {
    if (line.find(R"("ev":"watchdog_)") == std::string::npos) continue;
    if (line.find("escalate") != std::string::npos) escalated = true;
    if (line.find("unwind") != std::string::npos) unwound = true;
  }
  ASSERT_TRUE(escalated);
  ASSERT_TRUE(unwound);

  // Simulator substrate.
  sim::RegionConfig sim_cfg;
  sim_cfg.workers = kChannels;
  sim_cfg.protection = prot;
  sim::Region region(sim_cfg, parity_policy());
  expect_byte_identical(ref_journal, drive(region.control(), trace), "sim");

  // Flow substrate (one parallel stage).
  flow::PipelineConfig flow_cfg;
  flow_cfg.protection = prot;
  flow::PipelineBuilder builder(flow_cfg);
  builder.parallel("score", kChannels, micros(10), parity_policy());
  auto pipeline = builder.build();
  expect_byte_identical(ref_journal, drive(pipeline->stage_region(0).control(), trace),
                        "flow");

  // Threaded-runtime substrate (constructed over real loopback sockets;
  // never run — the loop is driven externally, exactly like a replay).
  rt::LocalRegionConfig rt_cfg;
  rt_cfg.workers = kChannels;
  rt_cfg.protection = prot;
  rt::LocalRegion local(rt_cfg, parity_policy());
  expect_byte_identical(ref_journal, drive(local.control(), trace), "runtime");
}

/// A service trace to ride beside the blocking trace: cumulative
/// completions and busy ns per channel. Channel 0 serves at a tenth of
/// the others' capacity, and halfway through the load hops to channel 1.
struct ServiceTrace {
  std::vector<std::vector<std::uint64_t>> completed;
  std::vector<std::vector<DurationNs>> busy;
};

ServiceTrace make_service_trace(std::uint64_t seed) {
  std::uint64_t state = seed;
  const auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  ServiceTrace trace;
  std::vector<std::uint64_t> completed(kChannels, 0);
  std::vector<DurationNs> busy(kChannels, 0);
  for (int p = 0; p < kPeriods; ++p) {
    const int loaded = p < kPeriods / 2 ? 0 : 1;
    for (int j = 0; j < kChannels; ++j) {
      const DurationNs service = j == loaded ? micros(100) : micros(10);
      const std::uint64_t served = 20 + next() % 40;
      completed[static_cast<std::size_t>(j)] += served;
      busy[static_cast<std::size_t>(j)] +=
          static_cast<DurationNs>(served) * service +
          static_cast<DurationNs>(next() % 1000);
    }
    trace.completed.push_back(completed);
    trace.busy.push_back(busy);
  }
  return trace;
}

/// drive() with the service trace as well, and the capacity lines on.
obs::DecisionJournal drive_with_service(
    control::RegionControlLoop& loop,
    const std::vector<std::vector<DurationNs>>& trace,
    const ServiceTrace& service) {
  obs::DecisionJournal journal;
  loop.set_journal(&journal);
  loop.set_journal_ticks(true);
  loop.set_journal_capacity(true);
  for (std::size_t p = 0; p < trace.size(); ++p) {
    loop.tick(static_cast<TimeNs>(p + 1) * kSpan, kSpan, trace[p],
              {service.completed[p], service.busy[p]});
  }
  loop.set_journal(nullptr);
  return journal;
}

TEST(ControlParity, TracesWithCompletionsAreIdenticalAcrossSubstrates) {
  const auto trace = make_trace(/*seed=*/0xCAFEu);
  const ServiceTrace service = make_service_trace(0xD00Du);
  const control::ProtectionConfig prot = parity_protection();

  auto ref_policy = parity_policy();
  obs::MetricsRegistry ref_metrics;
  control::RegionControlLoop reference(kChannels, ref_policy.get(), prot,
                                       /*source_interval=*/0, {},
                                       ref_metrics);
  const obs::DecisionJournal ref_journal =
      drive_with_service(reference, trace, service);
  // The capacity rule decided, and it followed the hop.
  bool capacity_solve = false;
  for (const std::string& line : ref_journal.lines()) {
    if (line.find(R"("mode":"capacity")") != std::string::npos) {
      capacity_solve = true;
    }
  }
  ASSERT_TRUE(capacity_solve);
  const WeightVector& w = ref_policy->weights();
  EXPECT_LT(w[1], w[0]);
  EXPECT_LT(w[1], w[2]);

  sim::RegionConfig sim_cfg;
  sim_cfg.workers = kChannels;
  sim_cfg.protection = prot;
  sim::Region region(sim_cfg, parity_policy());
  expect_byte_identical(ref_journal,
                        drive_with_service(region.control(), trace, service),
                        "sim");

  flow::PipelineConfig flow_cfg;
  flow_cfg.protection = prot;
  flow::PipelineBuilder builder(flow_cfg);
  builder.parallel("score", kChannels, micros(10), parity_policy());
  auto pipeline = builder.build();
  expect_byte_identical(
      ref_journal,
      drive_with_service(pipeline->stage_region(0).control(), trace, service),
      "flow");

  rt::LocalRegionConfig rt_cfg;
  rt_cfg.workers = kChannels;
  rt_cfg.protection = prot;
  rt::LocalRegion local(rt_cfg, parity_policy());
  expect_byte_identical(ref_journal,
                        drive_with_service(local.control(), trace, service),
                        "runtime");
}

TEST(ControlParity, ActionsMatchTickForTickAcrossSubstrates) {
  const auto trace = make_trace(/*seed=*/0xBEEFu);
  const control::ProtectionConfig prot = parity_protection();

  sim::RegionConfig sim_cfg;
  sim_cfg.workers = kChannels;
  sim_cfg.protection = prot;
  sim::Region region(sim_cfg, parity_policy());

  flow::PipelineConfig flow_cfg;
  flow_cfg.protection = prot;
  flow::PipelineBuilder builder(flow_cfg);
  builder.parallel("score", kChannels, micros(10), parity_policy());
  auto pipeline = builder.build();

  rt::LocalRegionConfig rt_cfg;
  rt_cfg.workers = kChannels;
  rt_cfg.protection = prot;
  rt::LocalRegion local(rt_cfg, parity_policy());

  for (int p = 0; p < static_cast<int>(trace.size()); ++p) {
    const auto& cumulative = trace[static_cast<std::size_t>(p)];
    const TimeNs now = (p + 1) * kSpan;
    const control::ControlActions& a =
        region.control().tick(now, kSpan, cumulative, {});
    const control::ControlActions& b =
        pipeline->stage_region(0).control().tick(now, kSpan, cumulative, {});
    const control::ControlActions& c =
        local.control().tick(now, kSpan, cumulative, {});
    // The stage, safe-mode flag, overload state and weights are read
    // from their owners: the loop and its policy.
    control::RegionControlLoop& la = region.control();
    control::RegionControlLoop& lb = pipeline->stage_region(0).control();
    control::RegionControlLoop& lc = local.control();
    ASSERT_EQ(a.throttle, b.throttle) << "tick " << p;
    ASSERT_EQ(la.watchdog_stage(), lb.watchdog_stage()) << "tick " << p;
    ASSERT_EQ(la.policy().safe_mode(), lb.policy().safe_mode())
        << "tick " << p;
    ASSERT_EQ(a.shed_high, b.shed_high) << "tick " << p;
    ASSERT_EQ(a.shed_low, b.shed_low) << "tick " << p;
    ASSERT_EQ(la.policy().overload_state().overloaded,
              lb.policy().overload_state().overloaded)
        << "tick " << p;
    ASSERT_EQ(la.policy().weights(), lb.policy().weights()) << "tick " << p;
    ASSERT_EQ(a.block_rates, b.block_rates) << "tick " << p;
    ASSERT_EQ(a.throttle, c.throttle) << "tick " << p;
    ASSERT_EQ(la.watchdog_stage(), lc.watchdog_stage()) << "tick " << p;
    ASSERT_EQ(la.policy().safe_mode(), lc.policy().safe_mode())
        << "tick " << p;
    ASSERT_EQ(a.shed_high, c.shed_high) << "tick " << p;
    ASSERT_EQ(la.policy().weights(), lc.policy().weights()) << "tick " << p;
  }
  // The shared trace walked every substrate through the same ladder and
  // back out of it.
  EXPECT_EQ(region.watchdog_stage(), 0);
  EXPECT_EQ(pipeline->stage_region(0).watchdog_stage(), 0);
  EXPECT_EQ(local.watchdog_stage(), 0);
}

TEST(ControlParity, WatchdogLadderWalksUpAndUnwinds) {
  auto policy = parity_policy();
  obs::MetricsRegistry metrics;
  control::RegionControlLoop loop(kChannels, policy.get(),
                                  parity_protection(),
                                  /*source_interval=*/0, {}, metrics);

  const auto trace = make_trace(/*seed=*/0xF00Du);
  int max_stage = 0;
  bool saw_halved_watermarks = false;
  for (int p = 0; p < static_cast<int>(trace.size()); ++p) {
    const control::ControlActions& acts = loop.tick(
        (p + 1) * kSpan, kSpan, trace[static_cast<std::size_t>(p)], {});
    max_stage = std::max(max_stage, loop.watchdog_stage());
    if (loop.watchdog_stage() >= 2) {
      saw_halved_watermarks = acts.shed_high == 64 && acts.shed_low == 32;
    }
  }
  // The plateau is long enough to reach safe mode (stage 3)...
  EXPECT_EQ(max_stage, 3);
  EXPECT_TRUE(saw_halved_watermarks);
  // ...and the calm tail unwinds everything: stage 0, full watermarks,
  // throttle released, safe mode exited.
  EXPECT_EQ(loop.watchdog_stage(), 0);
  EXPECT_FALSE(policy->safe_mode());
  EXPECT_EQ(loop.last_actions().shed_high, 128u);
  EXPECT_EQ(loop.last_actions().shed_low, 64u);
  EXPECT_EQ(loop.last_actions().throttle, 1.0);
}

}  // namespace
}  // namespace slb
