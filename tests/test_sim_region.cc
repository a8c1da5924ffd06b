// Integration tests of the full simulated region: sequential semantics,
// back pressure, throughput equalization (paper Section 4.3), drafting
// (Section 4.2), and end-to-end adaptation.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

#include "sim/region.h"

namespace slb::sim {
namespace {

RegionConfig small_region(int workers, DurationNs base_cost) {
  RegionConfig cfg;
  cfg.workers = workers;
  cfg.base_cost = base_cost;
  cfg.channel_buffer = 16;
  cfg.link_latency = micros(1);
  cfg.send_overhead = 100;
  cfg.sample_period = millis(5);
  return cfg;
}

TEST(Region, EmitsEverythingInOrder) {
  // The merger's emitted count tracks the global expected sequence, so
  // emitted == splitter seq space implies order was preserved.
  Region region(small_region(3, micros(2)),
                std::make_unique<RoundRobinPolicy>(3));
  region.run_for(millis(50));
  EXPECT_GT(region.emitted(), 1000u);
  EXPECT_EQ(region.merger().expected_seq(), region.merger().emitted());
  // Everything sent has either been emitted or is still in flight inside
  // bounded buffers.
  const std::uint64_t in_flight =
      region.splitter().total_sent() - region.emitted();
  EXPECT_LE(in_flight, 3u * (16 + 16 + 16) + 16);
}

TEST(Region, PerConnectionThroughputMatchesWeights) {
  // Section 4.3: with a 3:1 weighted split, per-connection send counts
  // stay 3:1 even when the capacities are equal — throughput carries no
  // information.
  auto oracle = std::make_unique<OraclePolicy>(
      2, std::vector<OraclePolicy::Phase>{{0, {3.0, 1.0}}});
  Region region(small_region(2, micros(2)), std::move(oracle));
  region.run_for(millis(50));
  const double ratio = static_cast<double>(region.splitter().sent(0)) /
                       static_cast<double>(region.splitter().sent(1));
  EXPECT_NEAR(ratio, 3.0, 0.15);
}

TEST(Region, ThroughputGatedBySlowestWorker) {
  // One worker 10x slower, even split: the pipeline runs at roughly
  // 2 * (slow worker rate), far below the aggregate capacity.
  LoadProfile load(2);
  load.add_step(0, 0, 10.0);
  Region region(small_region(2, micros(10)),
                std::make_unique<RoundRobinPolicy>(2), std::move(load));
  region.run_for(millis(100));
  // Slow worker: 100us/tuple -> 10K/s -> both connections equalize:
  // ~20K tuples/s total -> ~2000 in 100ms (plus buffered drainage).
  const double tput =
      static_cast<double>(region.emitted()) / 0.1;  // tuples per second
  EXPECT_LT(tput, 30'000.0);
  EXPECT_GT(tput, 10'000.0);
}

TEST(Region, ControllerReadsTheLoopsBlockingRates) {
  // The control loop and the policy's controller each difference the
  // splitter's blocking counters. Once the controller has its baseline
  // (the second sample on), both must read the same rates, bit for bit.
  LoadProfile load(2);
  load.add_step(0, 0, 10.0);
  Region region(small_region(2, micros(10)),
                std::make_unique<BlockingRatePolicy>(2), std::move(load));
  int samples = 0;
  int compared = 0;
  int mismatches = 0;
  bool blocked = false;
  region.set_sample_hook([&](Region& r) {
    if (++samples < 2) return;
    const auto& policy = dynamic_cast<const LoadBalancingPolicy&>(r.policy());
    const std::span<const double> raw = policy.controller().raw_rates();
    const std::vector<double>& loop = r.control().last_actions().block_rates;
    ASSERT_EQ(raw.size(), loop.size());
    for (std::size_t j = 0; j < raw.size(); ++j) {
      ++compared;
      if (raw[j] != loop[j]) ++mismatches;
      blocked = blocked || loop[j] > 0.0;
    }
  });
  region.run_for(millis(600));
  EXPECT_GT(compared, 200);
  EXPECT_TRUE(blocked);
  EXPECT_EQ(mismatches, 0);
}

TEST(Region, DraftingConcentratesBlocking) {
  // Equal capacities, heavy tuples, round-robin: blocking episodes should
  // concentrate on a draft leader rather than spreading evenly
  // (Section 4.2). We assert concentration: the most-blocked connection
  // has at least 3x the blocking time of the least-blocked one.
  Region region(small_region(3, micros(20)),
                std::make_unique<RoundRobinPolicy>(3));
  region.run_for(millis(200));
  const std::span<const DurationNs> blocked = region.splitter().blocked_ns();
  const DurationNs most = *std::max_element(blocked.begin(), blocked.end());
  const DurationNs least = *std::min_element(blocked.begin(), blocked.end());
  EXPECT_GT(most, 3 * std::max<DurationNs>(least, 1));
}

TEST(Region, BlockingTimeConcentratesOnLoadedConnection) {
  // With one worker 100x more expensive and an eager merger, essentially
  // all of the splitter's blocked time lands on the loaded connection —
  // the signal the whole paper is built on (Sections 4.2/4.3).
  LoadProfile load(2);
  load.add_step(0, 0, 100.0);
  Region region(small_region(2, micros(1)),
                std::make_unique<RoundRobinPolicy>(2), std::move(load));
  region.run_for(millis(100));
  const std::span<const DurationNs> blocked = region.splitter().blocked_ns();
  EXPECT_GT(blocked[0], 10 * std::max<DurationNs>(blocked[1], 1));
  // And the splitter is blocked most of the time overall (back pressure).
  EXPECT_GT(blocked[0] + blocked[1], millis(50));
}

TEST(Region, LbShedsLoadFromOverloadedWorker) {
  LoadProfile load(3);
  load.add_step(0, 0, 50.0);
  ControllerConfig cc;
  Region region(small_region(3, micros(5)),
                std::make_unique<LoadBalancingPolicy>(3, cc),
                std::move(load));
  region.run_for(seconds(1));  // 200 sample periods
  const WeightVector& w = region.policy().weights();
  EXPECT_LT(w[0], 120);
  EXPECT_GT(w[1], 300);
  EXPECT_GT(w[2], 300);
}

TEST(Region, LbBeatsRoundRobinUnderImbalance) {
  auto run = [](std::unique_ptr<SplitPolicy> policy) {
    LoadProfile load(4);
    load.add_step(0, 0, 20.0);
    load.add_step(1, 0, 20.0);
    Region region(small_region(4, micros(5)), std::move(policy),
                  std::move(load));
    region.run_for(seconds(1));
    return region.emitted();
  };
  const std::uint64_t rr = run(std::make_unique<RoundRobinPolicy>(4));
  const std::uint64_t lb =
      run(std::make_unique<LoadBalancingPolicy>(4, ControllerConfig{}));
  EXPECT_GT(lb, 2 * rr);
}

TEST(Region, LbRecoversAfterLoadRemoval) {
  LoadProfile load(2);
  load.add_load_until(0, 50.0, millis(100));
  ControllerConfig cc;
  cc.decay_factor = 0.9;
  Region region(small_region(2, micros(5)),
                std::make_unique<LoadBalancingPolicy>(2, cc),
                std::move(load));
  region.run_for(millis(100));
  const Weight w0_loaded = region.policy().weights()[0];
  EXPECT_LT(w0_loaded, 200);
  region.run_for(seconds(3));  // long recovery horizon
  EXPECT_GT(region.policy().weights()[0], 330);
}

TEST(Region, RunUntilEmittedStopsAtTarget) {
  Region region(small_region(2, micros(2)),
                std::make_unique<RoundRobinPolicy>(2));
  const RunResult r = region.run_until_emitted(5000, seconds(10));
  EXPECT_TRUE(r.reached_target);
  EXPECT_GE(r.emitted, 5000u);
  EXPECT_LE(r.emitted, 5010u);  // stops promptly
  EXPECT_LT(r.finish_time, seconds(1));
}

TEST(Region, RunUntilEmittedHonorsDeadline) {
  LoadProfile load(1);
  load.add_step(0, 0, 1000.0);  // practically frozen worker
  Region region(small_region(1, micros(100)),
                std::make_unique<RoundRobinPolicy>(1), std::move(load));
  const RunResult r = region.run_until_emitted(1'000'000, millis(10));
  EXPECT_FALSE(r.reached_target);
  EXPECT_EQ(r.finish_time, millis(10));
}

TEST(Region, SampleHookSeesPeriodicSnapshots) {
  Region region(small_region(2, micros(2)),
                std::make_unique<RoundRobinPolicy>(2));
  int calls = 0;
  region.set_sample_hook([&](Region& r) {
    ++calls;
    EXPECT_GT(r.now(), 0);
  });
  region.run_for(millis(50));
  EXPECT_EQ(calls, 10);  // 50ms / 5ms
}

TEST(Region, EmittedPerPeriodSumsToTotal) {
  Region region(small_region(2, micros(2)),
                std::make_unique<RoundRobinPolicy>(2));
  std::uint64_t sum = 0;
  region.set_sample_hook(
      [&](Region& r) { sum += r.emitted_last_period(); });
  region.run_for(millis(100));
  // The hook misses only the tuples emitted after the last sample tick.
  EXPECT_LE(sum, region.emitted());
  EXPECT_GE(sum + 2000, region.emitted());
}

TEST(Region, ZeroWeightConnectionStarves) {
  auto oracle = std::make_unique<OraclePolicy>(
      2, std::vector<OraclePolicy::Phase>{{0, {1.0, 0.0}}});
  Region region(small_region(2, micros(2)), std::move(oracle));
  region.run_for(millis(20));
  EXPECT_EQ(region.splitter().sent(1), 0u);
  EXPECT_GT(region.emitted(), 0u);  // pipeline flows through connection 0
}

TEST(Region, RejectsInputsOfTheWrongWidth) {
  // Each would index a per-worker array out of bounds: a policy picking
  // among 3 connections, a load profile for 3 workers, a fault on a
  // worker that does not exist.
  EXPECT_THROW(Region(small_region(2, micros(2)),
                      std::make_unique<RoundRobinPolicy>(3)),
               std::invalid_argument);
  EXPECT_THROW(Region(small_region(2, micros(2)),
                      std::make_unique<RoundRobinPolicy>(2), LoadProfile(3)),
               std::invalid_argument);
  Region region(small_region(2, micros(2)),
                std::make_unique<RoundRobinPolicy>(2));
  for (const int bad : {-1, 2}) {
    FaultEvent fault;
    fault.worker = bad;
    EXPECT_THROW(region.inject_fault(fault), std::invalid_argument)
        << "worker " << bad;
  }
}

TEST(Region, RejectsAHostModelPlacingFewerWorkers) {
  // Worker 1 has no host: its service factor would read past the
  // placement.
  EXPECT_THROW(Region(small_region(2, micros(2)),
                      std::make_unique<RoundRobinPolicy>(2), LoadProfile{},
                      HostModel({HostSpec{}}, {0})),
               std::invalid_argument);
}

TEST(Region, RejectsASharedPlacementOfTheWrongWidth) {
  SharedHostSet hosts({HostSpec{}});
  for (const std::vector<int>& host_of :
       {std::vector<int>{0}, std::vector<int>{0, 0, 0}}) {
    EXPECT_THROW(Region(small_region(2, micros(2)),
                        std::make_unique<RoundRobinPolicy>(2), LoadProfile{},
                        HostModel{}, nullptr, SharedPlacement{&hosts, host_of}),
                 std::invalid_argument)
        << host_of.size() << " hosts";
  }
}

TEST(Region, RejectsASharedPlacementOnAHostOutsideItsSet) {
  SharedHostSet hosts({HostSpec{}, HostSpec{}});
  for (const int bad : {-1, 2}) {
    EXPECT_THROW(Region(small_region(2, micros(2)),
                        std::make_unique<RoundRobinPolicy>(2), LoadProfile{},
                        HostModel{}, nullptr,
                        SharedPlacement{&hosts, {0, bad}}),
                 std::invalid_argument)
        << "host " << bad;
  }
}

TEST(Region, RejectsANonPositiveSendOverhead) {
  for (const DurationNs bad : {DurationNs{0}, DurationNs{-1}}) {
    RegionConfig cfg = small_region(2, micros(2));
    cfg.send_overhead = bad;
    EXPECT_THROW(Region(cfg, std::make_unique<RoundRobinPolicy>(2)),
                 std::invalid_argument)
        << "send_overhead " << bad;
  }
}

}  // namespace
}  // namespace slb::sim
