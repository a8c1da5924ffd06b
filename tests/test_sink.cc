// Tests for the TupleSink abstraction: counting and channel-adapter
// sinks, merger downstream chaining, and open-loop splitter sources.
#include <gtest/gtest.h>

#include <memory>

#include "core/policies.h"
#include "obs/metrics.h"
#include "run_until_idle.h"
#include "sim/merger.h"
#include "sim/sink.h"
#include "sim/splitter.h"

namespace slb::sim {
namespace {

TEST(CountingSink, CountsAndNotifies) {
  CountingSink sink;
  std::uint64_t last = 0;
  sink.set_on_tuple([&](const Tuple& t) { last = t.seq; });
  EXPECT_TRUE(sink.offer(0, Tuple{7}));
  EXPECT_TRUE(sink.offer(3, Tuple{9}));
  EXPECT_EQ(sink.count(), 2u);
  EXPECT_EQ(last, 9u);
}

TEST(ChannelSink, RefusesWhenChannelFull) {
  Simulator sim;
  Channel ch(&sim, 0, {.send_capacity = 2, .recv_capacity = 1, .latency = 10});
  ChannelSink sink(&ch);
  EXPECT_TRUE(sink.offer(0, Tuple{0}));  // goes straight in flight
  EXPECT_TRUE(sink.offer(0, Tuple{1}));
  EXPECT_TRUE(sink.offer(0, Tuple{2}));
  // recv cap 1 + in flight ... the send buffer (2) is now full.
  EXPECT_FALSE(sink.offer(0, Tuple{3}));
}

TEST(ChannelSink, SpaceCallbackFiresWhenChannelDrains) {
  Simulator sim;
  Channel ch(&sim, 0, {.send_capacity = 1, .recv_capacity = 1, .latency = 10});
  ChannelSink sink(&ch);
  int pokes = 0;
  sink.set_on_space(0, [&] { ++pokes; });
  EXPECT_TRUE(sink.offer(0, Tuple{0}));
  EXPECT_TRUE(sink.offer(0, Tuple{1}));   // sits in send buffer
  EXPECT_FALSE(sink.offer(0, Tuple{2}));  // full
  run_until_idle(sim);
  (void)ch.pop_recv();  // frees recv -> transfer starts -> send space
  run_until_idle(sim);
  EXPECT_GT(pokes, 0);
  EXPECT_TRUE(sink.offer(0, Tuple{2}));
}

TEST(MergerDownstream, OrderedDrainPausesOnFullDownstream) {
  Simulator sim;
  obs::MetricsRegistry metrics;
  Merger merger(&sim, metrics, 1, 16);
  Channel out(&sim, 0, {.send_capacity = 2, .recv_capacity = 1, .latency = 5});
  ChannelSink out_sink(&out);
  merger.connect_downstream(&out_sink);

  for (std::uint64_t s = 0; s < 6; ++s) {
    ASSERT_TRUE(merger.try_push(0, Tuple{s}));
  }
  // Downstream holds recv 1 + in flight ... + send 2 = 3; the rest wait
  // inside the merger.
  EXPECT_EQ(merger.emitted(), 3u);

  run_until_idle(sim);
  (void)out.pop_recv();
  run_until_idle(sim);
  EXPECT_GT(merger.emitted(), 3u);
}

TEST(MergerDownstream, SequenceOrderSurvivesBackPressure) {
  Simulator sim;
  obs::MetricsRegistry metrics;
  Merger merger(&sim, metrics, 2, 64);
  Channel out(&sim, 0, {.send_capacity = 1, .recv_capacity = 1, .latency = 1});
  ChannelSink out_sink(&out);
  merger.connect_downstream(&out_sink);

  // Feed seqs out of order across two connections.
  ASSERT_TRUE(merger.try_push(1, Tuple{1}));
  ASSERT_TRUE(merger.try_push(1, Tuple{3}));
  ASSERT_TRUE(merger.try_push(0, Tuple{0}));
  ASSERT_TRUE(merger.try_push(0, Tuple{2}));

  std::vector<std::uint64_t> seen;
  for (int rounds = 0; rounds < 10 && seen.size() < 4; ++rounds) {
    run_until_idle(sim);
    while (!out.recv_empty()) seen.push_back(out.pop_recv().seq);
    run_until_idle(sim);
  }
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{0, 1, 2, 3}));
}

TEST(MergerDownstream, UnorderedHonorsBackPressure) {
  Simulator sim;
  obs::MetricsRegistry metrics;
  Merger merger(&sim, metrics, 1, 16, /*ordered=*/false);
  Channel out(&sim, 0, {.send_capacity = 1, .recv_capacity = 1, .latency = 1});
  ChannelSink out_sink(&out);
  merger.connect_downstream(&out_sink);

  for (std::uint64_t s = 0; s < 5; ++s) {
    ASSERT_TRUE(merger.try_push(0, Tuple{s}));
  }
  EXPECT_LT(merger.emitted(), 5u);  // downstream bounded
  // Drain downstream repeatedly; everything flows through eventually.
  for (int rounds = 0; rounds < 10; ++rounds) {
    run_until_idle(sim);
    while (!out.recv_empty()) (void)out.pop_recv();
    run_until_idle(sim);
  }
  EXPECT_EQ(merger.emitted(), 5u);
}

// ---- open-loop splitter source -------------------------------------------

struct SourceRig {
  Simulator sim;
  obs::MetricsRegistry metrics;
  RoundRobinPolicy policy{1};
  std::unique_ptr<Channel> channel;
  std::unique_ptr<Splitter> splitter;

  explicit SourceRig(DurationNs interval) {
    channel = std::make_unique<Channel>(
        &sim, 0,
        Channel::Config{.send_capacity = 1024,
                        .recv_capacity = 1024,
                        .latency = 1});
    splitter = std::make_unique<Splitter>(
        &sim, metrics, "splitter.", &policy,
        std::vector<Channel*>{channel.get()}, /*overhead=*/100, interval);
  }
};

TEST(OpenLoopSource, RateLimitsSends) {
  SourceRig rig(micros(10));  // 100K tuples/s
  rig.splitter->start();
  rig.sim.run_until(millis(10));
  EXPECT_NEAR(static_cast<double>(rig.splitter->total_sent()), 1000.0, 20.0);
}

TEST(OpenLoopSource, ClosedLoopIsMuchFaster) {
  SourceRig rig(0);
  rig.splitter->start();
  rig.sim.run_until(millis(1));
  // Bounded only by the 100 ns overhead and the channel buffers.
  EXPECT_GE(rig.splitter->total_sent(), 2048u);
}

TEST(OpenLoopSource, ArrearsBurstAfterBlocking) {
  // A consumer that wakes up late: the source catches up on its backlog
  // at full speed instead of dropping it.
  Simulator sim;
  RoundRobinPolicy policy{1};
  Channel ch(&sim, 0, {.send_capacity = 4, .recv_capacity = 4, .latency = 1});
  obs::MetricsRegistry metrics;
  Splitter splitter(&sim, metrics, "splitter.", &policy, {&ch}, 100,
                    micros(10));
  splitter.start();
  sim.run_until(millis(5));  // buffers (8) fill, source falls behind
  EXPECT_EQ(splitter.total_sent(), 8u);
  // Drain everything; the source should burst well faster than 100K/s.
  std::function<void()> drain = [&] {
    while (!ch.recv_empty()) (void)ch.pop_recv();
    sim.schedule_after(micros(1), drain);
  };
  sim.schedule_after(0, drain);
  sim.run_until(millis(5) + micros(200));
  EXPECT_GT(splitter.total_sent(), 30u);  // >> 2 tuples of steady rate
}

}  // namespace
}  // namespace slb::sim
