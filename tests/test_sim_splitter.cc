// Tests for the simulated splitter: routing, blocking measurement, and
// the Section 4.4 re-routing baseline.
#include <gtest/gtest.h>

#include <memory>

#include "core/policies.h"
#include "obs/metrics.h"
#include "run_until_idle.h"
#include "sim/channel.h"
#include "sim/splitter.h"

namespace slb::sim {
namespace {

struct Rig {
  Simulator sim;
  obs::MetricsRegistry metrics;
  std::vector<std::unique_ptr<Channel>> channels;
  std::unique_ptr<SplitPolicy> policy;
  std::unique_ptr<Splitter> splitter;

  Rig(int n, std::unique_ptr<SplitPolicy> p, std::size_t send_cap = 4,
      std::size_t recv_cap = 4)
      : policy(std::move(p)) {
    std::vector<Channel*> ptrs;
    for (int j = 0; j < n; ++j) {
      channels.push_back(std::make_unique<Channel>(
          &sim, j,
          Channel::Config{.send_capacity = send_cap,
                          .recv_capacity = recv_cap,
                          .latency = 10}));
      ptrs.push_back(channels.back().get());
    }
    splitter = std::make_unique<Splitter>(&sim, metrics, "splitter.",
                                          policy.get(), std::move(ptrs), 100);
  }
};

TEST(Splitter, RoundRobinDistributesEvenly) {
  Rig rig(3, std::make_unique<RoundRobinPolicy>(3), 64, 64);
  rig.splitter->start();
  rig.sim.run_until(100 * 30);  // 30 sends' worth of overhead
  EXPECT_GE(rig.splitter->total_sent(), 24u);
  const std::uint64_t s0 = rig.splitter->sent(0);
  const std::uint64_t s1 = rig.splitter->sent(1);
  const std::uint64_t s2 = rig.splitter->sent(2);
  EXPECT_LE(std::max({s0, s1, s2}) - std::min({s0, s1, s2}), 1u);
}

TEST(Splitter, AssignsSequentialSeqs) {
  Rig rig(2, std::make_unique<RoundRobinPolicy>(2), 64, 64);
  rig.splitter->start();
  rig.sim.run_until(1000);
  // Pop everything from both receive buffers; the union of seqs must be
  // exactly 0..sent-1, and within one channel they must be increasing.
  std::vector<bool> seen(rig.splitter->total_sent(), false);
  for (auto& ch : rig.channels) {
    std::uint64_t prev = 0;
    bool first = true;
    while (!ch->recv_empty()) {
      const Tuple t = ch->pop_recv();
      ASSERT_LT(t.seq, seen.size());
      EXPECT_FALSE(seen[t.seq]);
      seen[t.seq] = true;
      if (!first) {
        EXPECT_GT(t.seq, prev);
      }
      prev = t.seq;
      first = false;
    }
  }
}

TEST(Splitter, BlocksWhenChannelFullAndRecordsTime) {
  // One channel, nothing ever consumes: send buffer (4) + recv buffer (4)
  // fill, then the splitter blocks forever.
  Rig rig(1, std::make_unique<RoundRobinPolicy>(1));
  rig.splitter->start();
  rig.sim.run_until(seconds(1));
  EXPECT_EQ(rig.splitter->total_sent(), 8u);
  EXPECT_TRUE(rig.splitter->blocked());
  EXPECT_EQ(rig.splitter->blocked_on(), 0);
  EXPECT_EQ(rig.splitter->blocks(), 1u);
  // Blocking time is only charged when the block *ends*; release one slot.
  // The splitter sends exactly one more tuple and blocks again (the
  // consumer is still not consuming).
  (void)rig.channels[0]->pop_recv();
  run_until_idle(rig.sim);
  EXPECT_TRUE(rig.splitter->blocked());
  EXPECT_EQ(rig.splitter->total_sent(), 9u);
  // Blocked from t=~800 until the pop at t=1s: roughly the whole second.
  EXPECT_GT(rig.splitter->blocked_ns()[0], seconds(1) / 2);
}

TEST(Splitter, ResumesAfterBlockedChannelDrains) {
  Rig rig(1, std::make_unique<RoundRobinPolicy>(1));
  rig.splitter->start();
  rig.sim.run_until(millis(1));
  ASSERT_TRUE(rig.splitter->blocked());
  // Drain one tuple every 10us for a while.
  for (int i = 0; i < 20; ++i) {
    rig.sim.schedule_after(micros(10) * (i + 1), [&] {
      if (!rig.channels[0]->recv_empty()) (void)rig.channels[0]->pop_recv();
    });
  }
  rig.sim.run_until(millis(2));
  EXPECT_GE(rig.splitter->total_sent(), 20u);
}

TEST(Splitter, WeightedPolicyRoutesProportionally) {
  auto oracle = std::make_unique<OraclePolicy>(
      2, std::vector<OraclePolicy::Phase>{{0, {3.0, 1.0}}});
  Rig rig(2, std::move(oracle), 1024, 1024);
  rig.splitter->start();
  rig.sim.run_until(100 * 400);  // 400 sends
  const double ratio = static_cast<double>(rig.splitter->sent(0)) /
                       static_cast<double>(rig.splitter->sent(1));
  EXPECT_NEAR(ratio, 3.0, 0.2);
}

TEST(Splitter, RerouteDivertsInsteadOfBlocking) {
  // Channel 0 never drains; with the re-routing baseline the splitter
  // sends channel 0's share to channel 1 instead of blocking.
  Rig rig(2, std::make_unique<RerouteOnBlockPolicy>(2), 2, 2);
  rig.splitter->start();
  // Keep channel 1 drained from the start: if channel 1 ever fills while
  // the splitter picks channel 0, the splitter commits to blocking on 0
  // and no amount of later draining reroutes it (exactly the "too little,
  // too late" property of Section 4.4).
  std::function<void()> drain = [&] {
    while (!rig.channels[1]->recv_empty()) (void)rig.channels[1]->pop_recv();
    rig.sim.schedule_after(50, drain);
  };
  rig.sim.schedule_after(0, drain);
  rig.sim.run_until(millis(1));
  EXPECT_FALSE(rig.splitter->blocked());
  EXPECT_GT(rig.splitter->rerouted(), 0u);
  EXPECT_EQ(rig.splitter->sent(0), 4u);  // only until its buffers filled
  EXPECT_GT(rig.splitter->sent(1), 100u);
}

TEST(Splitter, RerouteBlocksWhenAllChannelsFull) {
  Rig rig(2, std::make_unique<RerouteOnBlockPolicy>(2), 1, 1);
  rig.splitter->start();
  rig.sim.run_until(millis(1));
  EXPECT_TRUE(rig.splitter->blocked());
  EXPECT_EQ(rig.splitter->total_sent(), 4u);  // 2 per channel
}

TEST(Splitter, NonRerouteNeverDiverts) {
  Rig rig(2, std::make_unique<RoundRobinPolicy>(2), 1, 1);
  rig.splitter->start();
  rig.sim.run_until(millis(1));
  EXPECT_EQ(rig.splitter->rerouted(), 0u);
}

}  // namespace
}  // namespace slb::sim
