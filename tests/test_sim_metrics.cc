// The simulator's metrics registry against its own accessors. The
// splitter, the merger and the region register their counts and gauges
// themselves and are their only writers; the registry must therefore read
// exactly what the accessors read, at every sample hook and after every
// run call, through crashes, replays, stalls, shedding and re-routing.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "core/policies.h"
#include "delivery/delivery.h"
#include "obs/metrics.h"
#include "sim/region.h"
#include "util/time.h"

namespace slb {
namespace {

/// How many checks saw each count or gauge non-zero, so a test can show
/// that it compared values that moved.
struct Seen {
  std::uint64_t sent = 0, retransmits = 0, failovers = 0, shed = 0,
                blocks = 0, rerouted = 0, replay_bytes = 0, ack_lag = 0,
                emitted = 0, gaps = 0, dup_discards = 0, late_discards = 0,
                lost = 0;
};

void expect_registry_matches(sim::Region& r, const std::string& where,
                             Seen& seen) {
  const obs::MetricsSnapshot snap = r.metrics().snapshot();
  const auto gauge = [&](const char* name) -> std::int64_t {
    const obs::MetricValue* v = snap.find(name);
    EXPECT_NE(v, nullptr) << name << " unregistered at " << where;
    return v == nullptr ? -1 : v->gauge;
  };
  const auto count = [&](const char* name, std::uint64_t accessor,
                         std::uint64_t& nonzero) {
    EXPECT_NE(snap.find(name), nullptr) << name << " unregistered at "
                                        << where;
    EXPECT_EQ(snap.counter(name), accessor) << name << " at " << where;
    if (accessor > 0) ++nonzero;
  };
  sim::Splitter& s = r.splitter();
  sim::Merger& m = r.merger();
  count("splitter.sent", s.total_sent(), seen.sent);
  count("splitter.retransmits", s.retransmits(), seen.retransmits);
  count("splitter.failovers", s.failovers(), seen.failovers);
  count("splitter.shed", s.shed(), seen.shed);
  count("splitter.blocks", s.blocks(), seen.blocks);
  count("splitter.rerouted", s.rerouted(), seen.rerouted);
  count("merger.emitted", m.emitted(), seen.emitted);
  count("merger.gaps", m.gaps(), seen.gaps);
  count("merger.dup_discards", m.dup_discards(), seen.dup_discards);
  count("merger.late_discards", m.late_discards(), seen.late_discards);
  count("region.lost_tuples", r.lost_tuples(), seen.lost);

  // The gauges hold what the splitter's delivery core holds: the bytes
  // in its replay buffers and, under at-least-once, the sequences issued
  // (sent fresh or shed) but not yet acked.
  EXPECT_EQ(gauge("splitter.replay_buffer_bytes"),
            static_cast<std::int64_t>(s.replay_bytes()))
      << "at " << where;
  if (s.replay_bytes() > 0) ++seen.replay_bytes;
  if (r.config().delivery.mode == delivery::DeliveryMode::kAtLeastOnce) {
    const std::uint64_t lag = s.total_sent() + s.shed() - s.acked();
    EXPECT_EQ(gauge("splitter.ack_lag"), static_cast<std::int64_t>(lag))
        << "at " << where;
    if (lag > 0) ++seen.ack_lag;
  } else {
    EXPECT_EQ(gauge("splitter.ack_lag"), 0) << "at " << where;
  }
}

/// An open-loop source offering ~1.7x what three workers absorb, so the
/// backlog reaches the shed watermarks; worker 1 crashes and recovers,
/// and worker 2's channel stalls in between.
std::unique_ptr<sim::Region> make_region(
    delivery::DeliveryMode mode, std::unique_ptr<SplitPolicy> policy) {
  sim::RegionConfig cfg;
  cfg.workers = 3;
  cfg.base_cost = micros(5);
  cfg.send_overhead = 200;
  cfg.source_interval = 1000;
  cfg.sample_period = millis(5);
  cfg.delivery.mode = mode;
  cfg.protection.shed_high_watermark = 400;
  cfg.protection.shed_low_watermark = 100;
  auto region = std::make_unique<sim::Region>(cfg, std::move(policy));
  region->inject_fault({sim::FaultKind::kWorkerCrash, 1, millis(20), 0});
  region->inject_fault(
      {sim::FaultKind::kChannelStall, 2, millis(30), millis(5)});
  region->inject_fault({sim::FaultKind::kWorkerRecover, 1, millis(50), 0});
  return region;
}

Seen run_and_check(sim::Region& region) {
  Seen seen;
  int samples = 0;
  region.set_sample_hook([&](sim::Region& r) {
    expect_registry_matches(r, "sample " + std::to_string(++samples),
                            seen);
  });
  region.run_for(millis(80));
  expect_registry_matches(region, "run_for", seen);
  const sim::RunResult result = region.run_until_emitted(
      region.emitted() + 5000, region.now() + millis(40));
  EXPECT_TRUE(result.reached_target);
  expect_registry_matches(region, "run_until_emitted", seen);
  EXPECT_GT(samples, 10);
  return seen;
}

TEST(SimMetrics, RegistryMatchesAccessorsUnderGapSkip) {
  // Round-robin ignores the crash, so its picks of the dead channel are
  // failovers, and the crash's losses become gaps.
  const auto region = make_region(delivery::DeliveryMode::kGapSkip,
                                  std::make_unique<RoundRobinPolicy>(3));
  const Seen seen = run_and_check(*region);
  EXPECT_GT(seen.sent, 0u);
  EXPECT_GT(seen.failovers, 0u);
  EXPECT_GT(seen.shed, 0u);
  EXPECT_GT(seen.blocks, 0u);
  EXPECT_GT(seen.emitted, 0u);
  EXPECT_GT(seen.gaps, 0u);
  EXPECT_GT(seen.lost, 0u);
}

TEST(SimMetrics, RegistryMatchesAccessorsUnderAtLeastOnce) {
  const auto region = make_region(delivery::DeliveryMode::kAtLeastOnce,
                                  std::make_unique<LoadBalancingPolicy>(3));
  const Seen seen = run_and_check(*region);
  EXPECT_GT(seen.sent, 0u);
  EXPECT_GT(seen.retransmits, 0u);
  EXPECT_GT(seen.shed, 0u);
  EXPECT_GT(seen.blocks, 0u);
  EXPECT_GT(seen.replay_bytes, 0u);
  EXPECT_GT(seen.ack_lag, 0u);
  EXPECT_GT(seen.emitted, 0u);
  EXPECT_GT(seen.lost, 0u);
}

TEST(SimMetrics, RegistryMatchesAccessorsWhenRerouting) {
  // Section 4.4's baseline: worker 0 is 20x loaded, so its channel fills
  // and the splitter diverts instead of blocking.
  sim::RegionConfig cfg;
  cfg.workers = 3;
  cfg.base_cost = micros(5);
  cfg.sample_period = millis(5);
  sim::LoadProfile load(3);
  load.add_step(0, 0, 20.0);
  sim::Region region(cfg, std::make_unique<RerouteOnBlockPolicy>(3), load);
  Seen seen;
  region.set_sample_hook(
      [&](sim::Region& r) { expect_registry_matches(r, "sample", seen); });
  region.run_for(millis(50));
  expect_registry_matches(region, "run_for", seen);
  EXPECT_GT(seen.rerouted, 0u);
}

}  // namespace
}  // namespace slb
