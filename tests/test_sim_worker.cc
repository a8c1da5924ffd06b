// Tests for the simulated worker PE: service times, load profiles, host
// factors, and merger stalls.
#include <gtest/gtest.h>

#include <stdexcept>

#include "obs/metrics.h"
#include "run_until_idle.h"
#include "sim/channel.h"
#include "sim/host.h"
#include "sim/load_profile.h"
#include "sim/merger.h"
#include "sim/worker.h"

namespace slb::sim {
namespace {

struct Rig {
  Simulator sim;
  obs::MetricsRegistry metrics;
  Channel channel;
  Merger merger;
  LoadProfile load;
  HostModel hosts;
  Worker worker;

  explicit Rig(DurationNs base_cost, LoadProfile profile = LoadProfile(1),
               HostModel host_model = HostModel(),
               std::size_t merge_capacity = Merger::kUnbounded)
      : channel(&sim, 0, {.send_capacity = 64, .recv_capacity = 64,
                          .latency = 1}),
        merger(&sim, metrics, 1, merge_capacity),
        load(std::move(profile)),
        hosts(std::move(host_model)),
        worker(&sim, 0, base_cost, &load, &hosts) {
    worker.wire(&channel, &merger);
  }
};

TEST(LoadProfile, DefaultsToUnity) {
  LoadProfile p(2);
  EXPECT_DOUBLE_EQ(p.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(p.at(1, seconds(100)), 1.0);
}

TEST(LoadProfile, StepsApplyAtTheirTime) {
  LoadProfile p(1);
  p.add_step(0, seconds(10), 5.0);
  EXPECT_DOUBLE_EQ(p.at(0, seconds(9)), 1.0);
  EXPECT_DOUBLE_EQ(p.at(0, seconds(10)), 5.0);
  EXPECT_DOUBLE_EQ(p.at(0, seconds(99)), 5.0);
}

TEST(LoadProfile, LoadUntilDropsBack) {
  LoadProfile p(1);
  p.add_load_until(0, 100.0, seconds(25));
  EXPECT_DOUBLE_EQ(p.at(0, 0), 100.0);
  EXPECT_DOUBLE_EQ(p.at(0, seconds(24)), 100.0);
  EXPECT_DOUBLE_EQ(p.at(0, seconds(25)), 1.0);
}

TEST(LoadProfile, LaterStepAtAnEqualTimeOverrides) {
  // A worker with n steps, one a second, then one more step at each of
  // those times in turn: the step added last must win at its time and
  // leave the other times alone, whatever n is.
  for (int n = 1; n <= 40; ++n) {
    for (int at = 0; at < n; ++at) {
      LoadProfile p(1);
      for (int i = 0; i < n; ++i) p.add_step(0, seconds(i), 1.0 + i);
      p.add_step(0, seconds(at), 1000.0);
      for (int i = 0; i < n; ++i) {
        ASSERT_DOUBLE_EQ(p.at(0, seconds(i)), i == at ? 1000.0 : 1.0 + i)
            << n << " steps, the new one at " << at << " s, read at " << i
            << " s";
      }
    }
  }
}

TEST(HostModel, TrivialModelIsUnity) {
  HostModel m;
  EXPECT_TRUE(m.trivial());
  EXPECT_DOUBLE_EQ(m.factor(0), 1.0);
  EXPECT_EQ(m.host_of(0), -1);
}

TEST(HostModel, RejectsAHostOutsideItsSet) {
  for (const int bad : {-1, 1}) {
    EXPECT_THROW(HostModel({{1.0, 8}}, {0, bad}), std::invalid_argument)
        << "host " << bad;
  }
}

TEST(HostModel, SpeedDividesServiceTime) {
  HostModel m({{2.0, 8}}, {0});
  EXPECT_DOUBLE_EQ(m.factor(0), 0.5);
}

TEST(HostModel, OversubscriptionSlowsEveryPe) {
  // 16 PEs on an 8-thread host: everything takes 2x.
  std::vector<int> placement(16, 0);
  HostModel m({{1.0, 8}}, placement);
  for (int w = 0; w < 16; ++w) EXPECT_DOUBLE_EQ(m.factor(w), 2.0);
}

TEST(HostModel, MixedHosts) {
  // Worker 0 on a fast 16-thread host, workers 1-2 on a slow 2-thread
  // host (oversubscribed 1.5x).
  HostModel m({{2.0, 16}, {1.0, 2}}, {0, 1, 1});
  EXPECT_DOUBLE_EQ(m.factor(0), 0.5);
  EXPECT_DOUBLE_EQ(m.factor(1), 1.0);  // 2 PEs on 2 threads: no oversub
  EXPECT_EQ(m.host_of(0), 0);
  EXPECT_EQ(m.host_of(2), 1);
}

TEST(Worker, ProcessesAtBaseCost) {
  Rig rig(/*base_cost=*/1000);
  rig.channel.push_send(Tuple{0});
  run_until_idle(rig.sim);
  EXPECT_EQ(rig.worker.processed(), 1u);
  EXPECT_EQ(rig.merger.emitted(), 1u);
  // Latency 1 + service 1000.
  EXPECT_EQ(rig.sim.now(), 1001);
}

TEST(Worker, ServiceTimeScalesWithLoad) {
  LoadProfile profile(1);
  profile.add_step(0, 0, 10.0);
  Rig rig(1000, profile);
  rig.channel.push_send(Tuple{0});
  run_until_idle(rig.sim);
  EXPECT_EQ(rig.sim.now(), 10'001);
}

TEST(Worker, ServiceTimeScalesWithHostFactor) {
  Rig rig(1000, LoadProfile(1), HostModel({{2.0, 8}}, {0}));
  EXPECT_EQ(rig.worker.current_service_time(), 500);
}

TEST(Worker, ProcessesSequentiallyNotInParallel) {
  Rig rig(1000);
  rig.channel.push_send(Tuple{0});
  rig.channel.push_send(Tuple{1});
  run_until_idle(rig.sim);
  EXPECT_EQ(rig.worker.processed(), 2u);
  EXPECT_EQ(rig.sim.now(), 2001);  // 1 latency + 2 x 1000 service
}

TEST(Worker, StallsWhenMergerQueueFull) {
  // Merger queue of 1, gated: seq 0 never arrives on connection 0 of a
  // 2-connection merger... build it manually.
  Simulator sim;
  Channel channel(&sim, 1,
                  {.send_capacity = 8, .recv_capacity = 8, .latency = 1});
  obs::MetricsRegistry metrics;
  Merger merger(&sim, metrics, 2, 1);
  LoadProfile load(2);
  HostModel hosts;
  Worker worker(&sim, 1, 100, &load, &hosts);
  worker.wire(&channel, &merger);

  channel.push_send(Tuple{1});  // seq 1: gated behind missing seq 0
  channel.push_send(Tuple{3});
  run_until_idle(sim);
  EXPECT_TRUE(worker.holding());
  EXPECT_EQ(merger.queue_size(1), 1u);

  // Supplying seq 0 on the other connection lets everything drain.
  EXPECT_TRUE(merger.try_push(0, Tuple{0}));
  EXPECT_TRUE(merger.try_push(0, Tuple{2}));
  run_until_idle(sim);
  EXPECT_FALSE(worker.holding());
  EXPECT_EQ(merger.emitted(), 4u);
}

TEST(Worker, LoadChangeAppliesToNextTuple) {
  LoadProfile profile(1);
  profile.add_step(0, 2000, 10.0);  // load arrives at t=2000
  Rig rig(1000, profile);
  rig.channel.push_send(Tuple{0});
  rig.channel.push_send(Tuple{1});
  rig.channel.push_send(Tuple{2});
  run_until_idle(rig.sim);
  // t=1: arrival. Tuple 0: 1..1001 (1x). Tuple 1: 1001..2001 (starts
  // before the change: 1x). Tuple 2: starts at 2001 -> 10x -> ends 12001.
  EXPECT_EQ(rig.sim.now(), 12'001);
}

}  // namespace
}  // namespace slb::sim
