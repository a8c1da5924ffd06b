// Tests for the experiment harness: unit scaling, load/oracle
// construction, fixed-work runs, and the paper's qualitative orderings.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/harness.h"

namespace slb::sim {
namespace {

TEST(Scale, TupleCostFromMultiplies) {
  Scale s;
  EXPECT_EQ(s.tuple_cost(1000), 10'000);
  EXPECT_EQ(s.tuple_cost(60'000), 600'000);
}

TEST(Scale, PaperSecondsRoundTrip) {
  Scale s;
  const TimeNs t = s.from_paper_seconds(12.5);
  EXPECT_NEAR(s.to_paper_seconds(t), 12.5, 1e-9);
}

TEST(Scale, BufferSizingClampsToRange) {
  ExperimentSpec spec;
  spec.workers = 2;
  spec.base_multiplies = 100;  // 1 us tuples: target would exceed max
  RegionConfig cfg = build_region_config(spec);
  EXPECT_EQ(cfg.channel_buffer, Scale::kMaxBuffer);
  spec.base_multiplies = 1'000'000;  // 10 ms tuples: target below min
  cfg = build_region_config(spec);
  EXPECT_EQ(cfg.channel_buffer, Scale::kMinBuffer);
}

TEST(Harness, PolicyNames) {
  EXPECT_EQ(policy_name(PolicyKind::kRoundRobin), "RR");
  EXPECT_EQ(policy_name(PolicyKind::kReroute), "RR-reroute");
  EXPECT_EQ(policy_name(PolicyKind::kLbStatic), "LB-static");
  EXPECT_EQ(policy_name(PolicyKind::kLbAdaptive), "LB-adaptive");
  EXPECT_EQ(policy_name(PolicyKind::kOracle), "Oracle*");
}

TEST(Harness, MakePolicyBuildsTheNamedPolicy) {
  ExperimentSpec spec;
  spec.workers = 4;
  spec.loads.push_back({{0}, 10.0, 5.0});
  for (PolicyKind kind :
       {PolicyKind::kRoundRobin, PolicyKind::kReroute, PolicyKind::kLbStatic,
        PolicyKind::kLbAdaptive, PolicyKind::kOracle}) {
    EXPECT_EQ(make_policy(kind, spec)->name(), policy_name(kind));
  }
}

TEST(Harness, LoadProfileFromClasses) {
  ExperimentSpec spec;
  spec.workers = 4;
  spec.loads.push_back({{0, 1}, 10.0, 25.0});
  const LoadProfile p = build_load_profile(spec);
  EXPECT_DOUBLE_EQ(p.at(0, 0), 10.0);
  EXPECT_DOUBLE_EQ(p.at(0, spec.scale.from_paper_seconds(26)), 1.0);
  EXPECT_DOUBLE_EQ(p.at(2, 0), 1.0);
}

TEST(Harness, TrueCapacityReflectsLoadAndHosts) {
  ExperimentSpec spec;
  spec.workers = 2;
  spec.base_multiplies = 1000;  // 10 us tuples -> 100K/s
  spec.loads.push_back({{0}, 10.0, 50.0});
  EXPECT_NEAR(true_capacity(spec, 0, 10.0), 10'000.0, 1.0);
  EXPECT_NEAR(true_capacity(spec, 0, 60.0), 100'000.0, 1.0);
  EXPECT_NEAR(true_capacity(spec, 1, 10.0), 100'000.0, 1.0);

  spec.hosts = HostModel({{2.0, 8}, {1.0, 8}}, {0, 1});
  EXPECT_NEAR(true_capacity(spec, 0, 60.0), 200'000.0, 1.0);
}

TEST(Harness, PermanentLoadNeverLifts) {
  ExperimentSpec spec;
  spec.workers = 1;
  spec.base_multiplies = 1000;
  spec.loads.push_back({{0}, 10.0, -1.0});
  EXPECT_NEAR(true_capacity(spec, 0, 1e6), 10'000.0, 1.0);
}

TEST(Harness, IdealWorkIntegratesPhases) {
  ExperimentSpec spec;
  spec.workers = 2;
  spec.base_multiplies = 1000;  // 100K tuples/s per unloaded worker
  spec.duration_paper_s = 100.0;
  spec.loads.push_back({{0}, 10.0, 50.0});
  // Phase 1 (0-50 paper-s): 10K + 100K = 110K/s of virtual time. Phase 2:
  // 200K/s. Virtual seconds per paper second: 0.01.
  const double expected = (110e3 * 50 + 200e3 * 50) * 0.01;
  EXPECT_NEAR(static_cast<double>(ideal_work(spec)), expected,
              expected * 0.01);
}

TEST(Harness, OverlappingClassesAgreeOnTheLastOneInForce) {
  // Worker 0 carries 100x until 50 paper-s and, later in spec order, 10x
  // until 20. The workers, true_capacity and Oracle* all read the last
  // class that covers the worker and has not lifted: 10x before 20
  // paper-s, 100x from 20 to 50, 1x after.
  ExperimentSpec spec;
  spec.workers = 2;
  spec.base_multiplies = 1000;  // 100K tuples/s unloaded
  spec.loads.push_back({{0}, 100.0, 50.0});
  spec.loads.push_back({{0}, 10.0, 20.0});
  const LoadProfile profile = build_load_profile(spec);
  auto oracle = make_policy(PolicyKind::kOracle, spec);
  const auto oracle_weights = [&](double paper_s) {
    oracle->on_sample(spec.scale.from_paper_seconds(paper_s),
                      std::vector<DurationNs>(2, 0));
    return oracle->weights();
  };
  const auto permanent_oracle_weights = [&](double multiplier) {
    ExperimentSpec fixed = spec;
    fixed.loads = {{{0}, multiplier, -1.0}};
    return make_policy(PolicyKind::kOracle, fixed)->weights();
  };
  for (const auto& [paper_s, expected] :
       {std::pair{10.0, 10.0}, {30.0, 100.0}, {60.0, 1.0}}) {
    SCOPED_TRACE(paper_s);
    EXPECT_DOUBLE_EQ(profile.at(0, spec.scale.from_paper_seconds(paper_s)),
                     expected);
    EXPECT_NEAR(true_capacity(spec, 0, paper_s), 100'000.0 / expected, 1e-6);
    EXPECT_EQ(oracle_weights(paper_s), permanent_oracle_weights(expected));
  }
}

TEST(Harness, WorkLiftLeavesThePermanentLoadInForce) {
  // A permanent 5x and a work-lifted 100x on the only worker: once 1% of
  // the work is done the worker serves at 5x (20K tuples/s), not 1x, so
  // Oracle* finishes near the nominal duration ideal_work aims at.
  ExperimentSpec spec;
  spec.workers = 1;
  spec.base_multiplies = 1000;  // 10 us tuples: 100K tuples/s unloaded
  spec.duration_paper_s = 40.0;
  spec.loads.push_back({{0}, 5.0, -1.0});
  spec.loads.push_back({{0}, 100.0, -1.0, 0.01});
  const ExperimentResult r =
      run_fixed_work(PolicyKind::kOracle, spec, ideal_work(spec));
  EXPECT_TRUE(r.completed);
  EXPECT_NEAR(r.final_throughput_mtps, 0.02, 0.002);
  EXPECT_NEAR(r.exec_time_paper_s, spec.duration_paper_s, 4.0);
}

TEST(Harness, BenchmarkFanoutWorkIsPinned) {
  // The fixed work of the repository benchmark's sim-fanout64 workload:
  // Figure 13's 64-PE row (60,000-multiply tuples, a 100 ms paper second)
  // with 32 PEs 100x loaded until an eighth of the work. Which 32 are
  // loaded does not change the sum.
  ExperimentSpec spec;
  spec.workers = 64;
  spec.base_multiplies = 60'000;
  spec.scale.paper_second = millis(100);
  LoadClass cls;
  for (int w = 0; w < 64; w += 2) cls.workers.push_back(w);
  cls.multiplier = 100.0;
  cls.until_work_fraction = 1.0 / 8.0;
  spec.loads.push_back(cls);
  spec.duration_paper_s = 200.0;
  EXPECT_EQ(ideal_work(spec), 1'900'477u);
  spec.duration_paper_s = 10.0;
  EXPECT_EQ(ideal_work(spec), 95'023u);
}

TEST(Harness, OraclePolicyGetsCapacityProportionalWeights) {
  ExperimentSpec spec;
  spec.workers = 2;
  spec.base_multiplies = 1000;
  spec.loads.push_back({{0}, 3.0, -1.0});  // worker 0 at 1/3 capacity
  auto policy = make_policy(PolicyKind::kOracle, spec);
  EXPECT_EQ(policy->weights(), (WeightVector{250, 750}));
}

TEST(Harness, MakeRegionWiresEverything) {
  ExperimentSpec spec;
  spec.workers = 2;
  spec.base_multiplies = 1000;
  auto region = make_region(PolicyKind::kRoundRobin, spec);
  region->run_for(spec.scale.paper_second * 5);
  EXPECT_GT(region->emitted(), 0u);
}

TEST(Harness, FixedWorkRunCompletes) {
  ExperimentSpec spec;
  spec.workers = 2;
  spec.base_multiplies = 1000;
  spec.duration_paper_s = 20.0;
  const std::uint64_t work = ideal_work(spec);
  const ExperimentResult r =
      run_fixed_work(PolicyKind::kRoundRobin, spec, work);
  EXPECT_TRUE(r.completed);
  EXPECT_GE(r.emitted, work);
  EXPECT_GT(r.final_throughput_mtps, 0.0);
  // Two equal workers and an even split: RR should take roughly the
  // nominal duration (generous envelope).
  EXPECT_GT(r.exec_time_paper_s, 10.0);
  EXPECT_LT(r.exec_time_paper_s, 40.0);
}

TEST(Harness, AlternativesPreserveThePapersOrdering) {
  // Static 10x load on half the PEs (Figure 9 left, 4 PEs): Oracle* is
  // fastest; both LB variants land within a modest factor of it; RR is
  // far behind.
  ExperimentSpec spec;
  spec.workers = 4;
  spec.base_multiplies = 1000;
  spec.duration_paper_s = 60.0;
  spec.loads.push_back({{0, 1}, 10.0, -1.0});
  const std::uint64_t work = ideal_work(spec);
  const auto results = run_alternatives(spec, work);
  ASSERT_EQ(results.size(), 4u);
  const double oracle = results[0].exec_time_paper_s;
  const double lb_static = results[1].exec_time_paper_s;
  const double lb_adaptive = results[2].exec_time_paper_s;
  const double rr = results[3].exec_time_paper_s;
  EXPECT_LT(oracle, lb_static);
  EXPECT_LT(oracle, lb_adaptive);
  EXPECT_LT(lb_static, 2.5 * oracle);
  EXPECT_LT(lb_adaptive, 2.5 * oracle);
  EXPECT_GT(rr, 1.5 * lb_static);
}

TEST(Harness, RerouteBarelyHelpsAtLowCostWithBoundedMerger) {
  // Section 4.4, low-cost half: with 1,000-multiply tuples and bounded
  // buffering all the way through the merger (the paper's transport), the
  // re-routing baseline makes "no discernible difference" vs RR. Both hit
  // the deadline here; what distinguishes failure from success is the
  // work completed.
  ExperimentSpec spec;
  spec.workers = 2;
  spec.base_multiplies = 1000;
  spec.duration_paper_s = 20.0;
  spec.merge_buffer = 64;  // block-at-the-merger transport
  spec.loads.push_back({{0}, 100.0, -1.0});
  const std::uint64_t work = ideal_work(spec);
  const ExperimentResult rr =
      run_fixed_work(PolicyKind::kRoundRobin, spec, work, 10.0);
  const ExperimentResult rrr =
      run_fixed_work(PolicyKind::kReroute, spec, work, 10.0);
  // Re-routing happens, but buys little extra progress (our per-tuple
  // re-route granularity is finer than the paper's transport, so we see
  // a somewhat larger effect than their "no discernible difference" —
  // see EXPERIMENTS.md); it remains nowhere near an actual fix.
  EXPECT_GT(rrr.rerouted, 0u);
  EXPECT_LT(static_cast<double>(rrr.emitted),
            1.5 * static_cast<double>(rr.emitted));
  const ExperimentResult oracle =
      run_fixed_work(PolicyKind::kOracle, spec, work, 10.0);
  EXPECT_GT(static_cast<double>(oracle.emitted),
            2.0 * static_cast<double>(rrr.emitted));
}

TEST(Harness, RerouteHelpsSomewhatAtHighCostWithBoundedMerger) {
  // Section 4.4, high-cost half: with 10,000-multiply tuples re-routing
  // yields a real but clearly insufficient improvement.
  ExperimentSpec spec;
  spec.workers = 2;
  spec.base_multiplies = 10'000;
  spec.duration_paper_s = 20.0;
  spec.merge_buffer = 64;
  spec.loads.push_back({{0}, 100.0, -1.0});
  const std::uint64_t work = ideal_work(spec);
  const ExperimentResult rr =
      run_fixed_work(PolicyKind::kRoundRobin, spec, work, 10.0);
  const ExperimentResult rrr =
      run_fixed_work(PolicyKind::kReroute, spec, work, 10.0);
  EXPECT_GT(static_cast<double>(rrr.emitted),
            1.15 * static_cast<double>(rr.emitted));
  // ...but far from the oracle's ideal distribution.
  const ExperimentResult oracle =
      run_fixed_work(PolicyKind::kOracle, spec, work, 10.0);
  EXPECT_GT(static_cast<double>(oracle.emitted),
            1.5 * static_cast<double>(rrr.emitted));
}

}  // namespace
}  // namespace slb::sim
