// Tests for the simulated TCP channel: latency, flow control, callbacks.
#include <gtest/gtest.h>

#include "run_until_idle.h"
#include "sim/channel.h"

namespace slb::sim {
namespace {

Channel::Config small_config() {
  Channel::Config cfg;
  cfg.send_capacity = 2;
  cfg.recv_capacity = 2;
  cfg.latency = 100;
  return cfg;
}

TEST(Channel, DeliversAfterLatency) {
  Simulator sim;
  Channel ch(&sim, 0, small_config());
  ch.push_send(Tuple{7});
  EXPECT_TRUE(ch.recv_empty());
  sim.run_until(99);
  EXPECT_TRUE(ch.recv_empty());
  sim.run_until(100);
  ASSERT_FALSE(ch.recv_empty());
  EXPECT_EQ(ch.pop_recv().seq, 7u);
}

TEST(Channel, PreservesFifoOrder) {
  Simulator sim;
  Channel ch(&sim, 0, small_config());
  ch.push_send(Tuple{1});
  ch.push_send(Tuple{2});
  run_until_idle(sim);
  EXPECT_EQ(ch.pop_recv().seq, 1u);
  EXPECT_EQ(ch.pop_recv().seq, 2u);
}

TEST(Channel, RecvReadyCallbackFires) {
  Simulator sim;
  Channel ch(&sim, 0, small_config());
  int notified = 0;
  ch.set_on_recv_ready([&] { ++notified; });
  ch.push_send(Tuple{1});
  run_until_idle(sim);
  EXPECT_EQ(notified, 1);
}

TEST(Channel, FlowControlHoldsTuplesInSendBuffer) {
  // recv capacity 2: the 3rd+ tuples must wait in the send buffer until
  // the receiver pops.
  Simulator sim;
  Channel::Config cfg = small_config();
  cfg.send_capacity = 4;
  Channel ch(&sim, 0, cfg);
  for (std::uint64_t s = 0; s < 4; ++s) ch.push_send(Tuple{s});
  run_until_idle(sim);
  EXPECT_EQ(ch.recv_size(), 2u);
  EXPECT_EQ(ch.send_size(), 2u);
  EXPECT_EQ(ch.occupancy(), 4u);

  (void)ch.pop_recv();  // frees a slot; transfer resumes
  run_until_idle(sim);
  EXPECT_EQ(ch.recv_size(), 2u);
  EXPECT_EQ(ch.send_size(), 1u);
}

TEST(Channel, SendFullAndSpaceCallback) {
  Simulator sim;
  Channel::Config cfg = small_config();
  cfg.send_capacity = 1;
  cfg.recv_capacity = 1;
  Channel ch(&sim, 0, cfg);
  int space_events = 0;
  ch.set_on_send_space([&] { ++space_events; });

  ch.push_send(Tuple{0});  // transfers immediately (recv empty)
  EXPECT_GE(space_events, 1);
  ch.push_send(Tuple{1});  // recv side will be full; stays in send buffer
  run_until_idle(sim);
  EXPECT_TRUE(ch.send_full());

  const int before = space_events;
  (void)ch.pop_recv();  // lets the transfer start -> send space frees
  run_until_idle(sim);
  EXPECT_GT(space_events, before);
  EXPECT_FALSE(ch.send_full());
}

TEST(Channel, InFlightCountsTransfers) {
  Simulator sim;
  Channel ch(&sim, 0, small_config());
  ch.push_send(Tuple{0});
  EXPECT_EQ(ch.in_flight(), 1u);
  run_until_idle(sim);
  EXPECT_EQ(ch.in_flight(), 0u);
}

TEST(Channel, PipelinesMultipleTransfers) {
  // Both tuples should be in flight simultaneously (no serialization on
  // the link) and arrive at the same time.
  Simulator sim;
  Channel ch(&sim, 0, small_config());
  ch.push_send(Tuple{0});
  ch.push_send(Tuple{1});
  EXPECT_EQ(ch.in_flight(), 2u);
  sim.run_until(100);
  EXPECT_EQ(ch.recv_size(), 2u);
}

}  // namespace
}  // namespace slb::sim
