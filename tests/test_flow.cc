// Tests for the dataflow layer: pipelines of operators with embedded
// data-parallel regions, end-to-end ordering, back pressure to the
// source, and per-stage load balancing.
#include <gtest/gtest.h>

#include <memory>
#include <span>

#include "flow/pipeline.h"
#include "obs/metrics.h"
#include "sim/fault.h"

namespace slb::flow {
namespace {

PipelineConfig fast_config() {
  PipelineConfig cfg;
  cfg.sample_period = millis(5);
  cfg.channel_buffer = 16;
  cfg.link_latency = micros(1);
  return cfg;
}

TEST(Pipeline, SingleOpDelivers) {
  PipelineBuilder b(fast_config());
  b.op("only", micros(5));
  auto p = b.build();
  p->run_for(millis(50));
  EXPECT_GT(p->delivered(), 5000u);
  EXPECT_TRUE(p->order_ok());
  EXPECT_EQ(p->stages(), 1);
  EXPECT_EQ(p->stage_name(0), "only");
  EXPECT_FALSE(p->stage_is_parallel(0));
}

TEST(Pipeline, ChainedOpsPreserveOrderAndCount) {
  PipelineBuilder b(fast_config());
  b.op("a", micros(2)).op("b", micros(3)).op("c", micros(2));
  auto p = b.build();
  p->run_for(millis(50));
  EXPECT_GT(p->delivered(), 1000u);
  EXPECT_TRUE(p->order_ok());
  // Upstream stages have processed at least as much as downstream ones.
  EXPECT_GE(p->stage_processed(0), p->stage_processed(1));
  EXPECT_GE(p->stage_processed(1), p->stage_processed(2));
}

TEST(Pipeline, ThroughputGatedBySlowestStage) {
  PipelineBuilder b(fast_config());
  b.op("fast1", micros(1)).op("slow", micros(50)).op("fast2", micros(1));
  auto p = b.build();
  p->run_for(millis(100));
  // 50 us bottleneck -> ~20K/s -> ~2000 tuples in 100 ms (plus slack).
  EXPECT_GT(p->delivered(), 1500u);
  EXPECT_LT(p->delivered(), 2600u);
}

TEST(Pipeline, BackPressureReachesTheSource) {
  PipelineBuilder b(fast_config());
  b.op("slow", micros(100));
  auto p = b.build();
  p->run_for(millis(50));
  // The source produces at 10M/s against a 10K/s stage: it must spend
  // almost all of its time blocked.
  EXPECT_GT(p->source_blocked(), millis(40));
}

TEST(Pipeline, OpenLoopSourceLimitsRate) {
  PipelineConfig cfg = fast_config();
  cfg.source_interval = micros(100);  // 10K tuples/s offered
  PipelineBuilder b(cfg);
  b.op("cheap", micros(1));
  auto p = b.build();
  p->run_for(millis(100));
  EXPECT_NEAR(static_cast<double>(p->delivered()), 1000.0, 60.0);
  EXPECT_LT(p->source_blocked(), millis(5));
}

TEST(Pipeline, ParallelStageDeliversInOrder) {
  PipelineBuilder b(fast_config());
  b.op("pre", micros(1));
  b.parallel("par", 4, micros(12),
             std::make_unique<RoundRobinPolicy>(4));
  b.op("post", micros(1));
  auto p = b.build();
  p->run_for(millis(50));
  EXPECT_GT(p->delivered(), 5000u);
  EXPECT_TRUE(p->order_ok());
  EXPECT_TRUE(p->stage_is_parallel(1));
  // Upstream stages have processed at least as much as downstream ones.
  EXPECT_GE(p->stage_processed(0), p->stage_processed(1));
  EXPECT_GE(p->stage_processed(1), p->stage_processed(2));
}

TEST(Pipeline, ParallelStageScalesThroughput) {
  auto run = [](int width) {
    PipelineBuilder b(fast_config());
    b.parallel("par", width, micros(40),
               std::make_unique<RoundRobinPolicy>(width));
    auto p = b.build();
    p->run_for(millis(100));
    return p->delivered();
  };
  const std::uint64_t w1 = run(1);
  const std::uint64_t w4 = run(4);
  EXPECT_GT(w4, 3 * w1);
}

TEST(Pipeline, UnorderedParallelStageMayReorder) {
  // With parallel sinks and skewed replica speeds, order is not
  // guaranteed (that is the point of unordered regions).
  sim::LoadProfile load(2);
  load.add_step(0, 0, 20.0);
  PipelineBuilder b(fast_config());
  b.parallel("par", 2, micros(10),
             std::make_unique<RerouteOnBlockPolicy>(2),
             /*ordered=*/false, std::move(load));
  auto p = b.build();
  p->run_for(millis(50));
  EXPECT_GT(p->delivered(), 1000u);
  EXPECT_FALSE(p->order_ok());
}

TEST(Pipeline, LbBalancesEmbeddedParallelStage) {
  // One replica of the parallel stage is 20x loaded; the stage's own
  // LB-adaptive policy sheds it, and the pipeline runs far faster than
  // with round-robin.
  auto run = [](std::unique_ptr<SplitPolicy> policy) {
    sim::LoadProfile load(4);
    load.add_step(0, 0, 20.0);
    PipelineBuilder b(fast_config());
    b.op("pre", micros(1));
    b.parallel("par", 4, micros(20), std::move(policy), true,
               std::move(load));
    auto p = b.build();
    p->run_for(seconds(1));
    return p;
  };
  auto rr = run(std::make_unique<RoundRobinPolicy>(4));
  auto lb = run(std::make_unique<LoadBalancingPolicy>(4, ControllerConfig{}));
  EXPECT_GT(lb->delivered(), 2 * rr->delivered());
  EXPECT_LT(lb->stage_region(1).policy().weights()[0], 150);
  EXPECT_TRUE(lb->order_ok());
}

TEST(Pipeline, TwoParallelStages) {
  // Each parallel stage balances independently; ordering is restored at
  // each merger, so the end-to-end stream is ordered.
  sim::LoadProfile first_load(3);
  first_load.add_step(1, 0, 15.0);
  sim::LoadProfile second_load(3);
  second_load.add_step(2, 0, 15.0);
  PipelineBuilder b(fast_config());
  b.parallel("stage-a", 3, micros(15),
             std::make_unique<LoadBalancingPolicy>(3, ControllerConfig{}),
             true, std::move(first_load));
  b.parallel("stage-b", 3, micros(15),
             std::make_unique<LoadBalancingPolicy>(3, ControllerConfig{}),
             true, std::move(second_load));
  auto p = b.build();
  p->run_for(seconds(1));
  EXPECT_TRUE(p->order_ok());
  EXPECT_GT(p->delivered(), 10'000u);
  // Each stage shed its own loaded replica.
  EXPECT_LT(p->stage_region(0).policy().weights()[1], 200);
  EXPECT_LT(p->stage_region(1).policy().weights()[2], 200);
}

TEST(Pipeline, OpLoadProfileApplies) {
  sim::LoadProfile load(1);
  load.add_load_until(0, 50.0, millis(25));
  PipelineBuilder b(fast_config());
  b.op("bursty", micros(10), std::move(load));
  auto p = b.build();
  p->run_for(millis(25));
  const std::uint64_t during = p->delivered();
  p->run_for(millis(25));
  const std::uint64_t after = p->delivered() - during;
  EXPECT_GT(after, 10 * during);
}

TEST(Pipeline, StageCountersExposeBlocking) {
  sim::LoadProfile load(2);
  load.add_step(0, 0, 30.0);
  PipelineBuilder b(fast_config());
  b.parallel("par", 2, micros(10), std::make_unique<RoundRobinPolicy>(2),
             true, std::move(load));
  auto p = b.build();
  p->run_for(millis(100));
  const std::span<const DurationNs> blocked =
      p->stage_region(0).splitter().blocked_ns();
  EXPECT_GT(blocked[0], 10 * std::max<DurationNs>(blocked[1], 1));
}

TEST(Pipeline, StageWorkerCrashAndRecoveryKeepOrder) {
  // A parallel stage is a sim::Region, so its workers take the region's
  // fault injection: a crash loses the worker's tuples as merger gaps,
  // the survivors carry the stream, and the policy re-admits the
  // recovered worker.
  PipelineBuilder b(fast_config());
  b.op("pre", micros(1));
  b.parallel("par", 4, micros(20),
             std::make_unique<LoadBalancingPolicy>(4, ControllerConfig{}));
  b.op("post", micros(1));
  auto p = b.build();
  sim::Region& region = p->stage_region(1);
  region.inject_fault({sim::FaultKind::kWorkerCrash, 1, millis(100), 0});
  region.inject_fault({sim::FaultKind::kWorkerRecover, 1, millis(200), 0});

  p->run_for(millis(150));
  EXPECT_TRUE(region.worker(1).down());
  EXPECT_EQ(region.policy().weights()[1], 0);
  p->run_for(millis(60));
  const std::uint64_t at_recovery = p->delivered();
  const std::uint64_t sent_1_at_recovery = region.splitter().sent(1);
  p->run_for(millis(390));

  EXPECT_TRUE(p->order_ok());
  EXPECT_GT(p->delivered(), at_recovery + 10'000u);
  EXPECT_GT(region.lost_tuples(), 0u);
  EXPECT_EQ(region.lost_tuples(), region.merger().gaps());
  EXPECT_EQ(region.merger().lost_pending(), 0u);
  EXPECT_FALSE(region.worker(1).down());
  EXPECT_GT(region.policy().weights()[1], 0);
  EXPECT_GT(region.splitter().sent(1), sent_1_at_recovery);
}

TEST(Pipeline, StageRegionRegistryCountsItsStage) {
  // Each parallel stage reports into its own region's registry under the
  // standalone names; the pipeline's registry keeps only "source.*".
  PipelineBuilder b(fast_config());
  b.parallel("stage-a", 2, micros(10), std::make_unique<RoundRobinPolicy>(2));
  b.op("mid", micros(2));
  b.parallel("stage-b", 3, micros(15), std::make_unique<RoundRobinPolicy>(3));
  auto p = b.build();
  p->run_for(millis(50));
  for (int s : {0, 2}) {
    sim::Region& region = p->stage_region(s);
    const obs::MetricsSnapshot snap = region.metrics().snapshot();
    ASSERT_NE(snap.find("splitter.sent"), nullptr) << "stage " << s;
    ASSERT_NE(snap.find("merger.emitted"), nullptr) << "stage " << s;
    EXPECT_GT(snap.counter("splitter.sent"), 0u) << "stage " << s;
    EXPECT_EQ(snap.counter("splitter.sent"), region.splitter().total_sent())
        << "stage " << s;
    EXPECT_EQ(snap.counter("merger.emitted"), p->stage_processed(s))
        << "stage " << s;
  }
  const obs::MetricsSnapshot pipeline_snap = p->metrics().snapshot();
  EXPECT_GE(pipeline_snap.counter("source.sent"),
            p->stage_region(0).splitter().total_sent());
  EXPECT_EQ(pipeline_snap.find("splitter.sent"), nullptr);
}

TEST(Pipeline, LatencySpansAllStages) {
  // Low-utilization open loop: end-to-end latency ~= the sum of stage
  // service times plus per-hop link latency; queueing adds little.
  PipelineConfig cfg = fast_config();
  cfg.source_interval = micros(200);  // trickle
  PipelineBuilder b(cfg);
  b.op("a", micros(10)).op("b", micros(20)).op("c", micros(10));
  auto p = b.build();
  p->run_for(millis(50));
  ASSERT_GT(p->latency().count(), 100u);
  // 3 service stages (40 us) + 3 channel hops of 1 us link latency
  // (the terminal sink has no channel).
  EXPECT_GE(p->latency().min(), micros(43));
  EXPECT_LE(p->latency().mean(), micros(60));
}

TEST(Pipeline, LatencyIncludesParallelRegionQueueing) {
  PipelineConfig cfg = fast_config();
  cfg.source_interval = micros(20);
  PipelineBuilder b(cfg);
  b.parallel("par", 2, micros(30), std::make_unique<RoundRobinPolicy>(2));
  auto p = b.build();
  p->run_for(millis(50));
  ASSERT_GT(p->latency().count(), 100u);
  EXPECT_GE(p->latency().min(), micros(31));
}

}  // namespace
}  // namespace slb::flow
