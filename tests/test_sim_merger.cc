// Tests for the in-order merger: sequential semantics, gating, stalls.
#include <gtest/gtest.h>

#include <vector>

#include "obs/metrics.h"
#include "run_until_idle.h"
#include "sim/channel.h"
#include "sim/merger.h"
#include "sim/worker.h"

namespace slb::sim {
namespace {

TEST(Merger, EmitsInSequenceOrder) {
  Simulator sim;
  obs::MetricsRegistry metrics;
  Merger m(&sim, metrics, 2, 16);
  std::vector<std::uint64_t> out;
  m.set_on_emit([&](const Tuple& t) { out.push_back(t.seq); });

  EXPECT_TRUE(m.try_push(0, Tuple{0}));
  EXPECT_TRUE(m.try_push(1, Tuple{1}));
  EXPECT_TRUE(m.try_push(0, Tuple{2}));
  EXPECT_EQ(out, (std::vector<std::uint64_t>{0, 1, 2}));
  EXPECT_EQ(m.emitted(), 3u);
}

TEST(Merger, HoldsOutOfOrderTuples) {
  Simulator sim;
  obs::MetricsRegistry metrics;
  Merger m(&sim, metrics, 2, 16);
  std::vector<std::uint64_t> out;
  m.set_on_emit([&](const Tuple& t) { out.push_back(t.seq); });

  EXPECT_TRUE(m.try_push(1, Tuple{1}));  // seq 0 still missing
  EXPECT_TRUE(m.try_push(1, Tuple{2}));
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(m.try_push(0, Tuple{0}));  // unblocks everything
  EXPECT_EQ(out, (std::vector<std::uint64_t>{0, 1, 2}));
}

TEST(Merger, GatedBySlowestConnection) {
  // Fast connection 1 delivers many tuples, but none can leave until the
  // slow connection 0 supplies the gating sequence numbers: the paper's
  // Figure 3.
  Simulator sim;
  obs::MetricsRegistry metrics;
  Merger m(&sim, metrics, 2, 64);
  // Splitter alternates: even seqs on 0, odd on 1. Connection 1 runs far
  // ahead.
  for (std::uint64_t s = 1; s < 20; s += 2) {
    EXPECT_TRUE(m.try_push(1, Tuple{s}));
  }
  EXPECT_EQ(m.emitted(), 0u);
  EXPECT_EQ(m.queue_size(1), 10u);

  EXPECT_TRUE(m.try_push(0, Tuple{0}));
  EXPECT_EQ(m.emitted(), 2u);  // 0 and 1
  EXPECT_TRUE(m.try_push(0, Tuple{2}));
  EXPECT_EQ(m.emitted(), 4u);
}

TEST(Merger, BoundedQueueRejectsWhenFull) {
  Simulator sim;
  obs::MetricsRegistry metrics;
  Merger m(&sim, metrics, 2, 2);
  EXPECT_TRUE(m.try_push(1, Tuple{1}));
  EXPECT_TRUE(m.try_push(1, Tuple{2}));
  EXPECT_FALSE(m.try_push(1, Tuple{3}));  // full and gated on seq 0
}

TEST(Merger, SpaceCallbackFiresAfterDrain) {
  Simulator sim;
  obs::MetricsRegistry metrics;
  Merger m(&sim, metrics, 2, 2);
  int pokes = 0;
  m.set_on_space(1, [&] { ++pokes; });
  EXPECT_TRUE(m.try_push(1, Tuple{1}));
  EXPECT_TRUE(m.try_push(1, Tuple{2}));
  EXPECT_FALSE(m.try_push(1, Tuple{3}));  // refused: a wake is owed
  EXPECT_TRUE(m.try_push(0, Tuple{0}));
  run_until_idle(sim);  // space notifications are zero-delay events
  EXPECT_EQ(pokes, 1);
  EXPECT_EQ(m.emitted(), 3u);
}

TEST(Merger, UnrefusedConnectionIsNotWoken) {
  // Connection 1's queue drains, but it never refused a tuple: its worker
  // holds nothing, so there is nothing to wake it for.
  Simulator sim;
  obs::MetricsRegistry metrics;
  Merger m(&sim, metrics, 2, 2);
  int pokes = 0;
  m.set_on_space(1, [&] { ++pokes; });
  EXPECT_TRUE(m.try_push(1, Tuple{1}));
  EXPECT_TRUE(m.try_push(1, Tuple{2}));
  EXPECT_TRUE(m.try_push(0, Tuple{0}));
  run_until_idle(sim);
  EXPECT_EQ(pokes, 0);
  EXPECT_EQ(m.emitted(), 3u);
  EXPECT_EQ(m.queue_size(1), 0u);
}

TEST(Merger, RefusedThenCrashedWorkerIsWokenAtMostOnce) {
  // Worker 1 finishes tuple 3 into a full queue and holds it, crashes
  // (the held tuple is lost), recovers and starts tuple 5. The queue then
  // drains: the one owed wake fires exactly once and finds the worker
  // busy, so it starts nothing.
  Simulator sim;
  obs::MetricsRegistry metrics;
  Merger m(&sim, metrics, 2, 2);
  Channel ch(&sim, 1, {.send_capacity = 8, .recv_capacity = 8, .latency = 1});
  Worker w(&sim, 1, 100, nullptr, nullptr);
  w.wire(&ch, &m);
  int pokes = 0;
  int starts = 0;
  m.set_on_space(1, [&] {
    ++pokes;
    const bool was_busy = w.busy();
    w.poll();
    if (!was_busy && w.busy()) ++starts;
  });
  EXPECT_TRUE(m.try_push(1, Tuple{1}));
  EXPECT_TRUE(m.try_push(1, Tuple{2}));
  ch.push_send(Tuple{3});
  sim.run_until(1'000);
  ASSERT_TRUE(w.holding());  // tuple 3 refused and held
  w.crash();
  ch.push_send(Tuple{5});
  sim.run_until(2'000);  // 5 waits in the receive buffer
  w.recover();
  ASSERT_TRUE(w.busy());  // recovery started 5
  EXPECT_TRUE(m.try_push(0, Tuple{0}));  // drains 0, 1, 2
  sim.run_until(2'000);  // the zero-delay wake, not 5's completion
  EXPECT_EQ(pokes, 1);
  EXPECT_EQ(starts, 0);
  run_until_idle(sim);
  EXPECT_EQ(w.processed(), 2u);  // 3 (then lost) and 5
  EXPECT_EQ(m.queue_size(1), 1u);  // 5, gated on the lost 3
  // The wake is paid: freeing the queue again owes worker 1 nothing.
  m.note_lost(3, 2);
  run_until_idle(sim);
  EXPECT_EQ(pokes, 1);
  EXPECT_EQ(m.emitted(), 4u);
}

TEST(Merger, UnboundedCapacityNeverRejects) {
  Simulator sim;
  obs::MetricsRegistry metrics;
  Merger m(&sim, metrics, 2, Merger::kUnbounded);
  for (std::uint64_t s = 1; s <= 10'000; ++s) {
    ASSERT_TRUE(m.try_push(1, Tuple{s}));
  }
  EXPECT_EQ(m.emitted(), 0u);
  EXPECT_TRUE(m.try_push(0, Tuple{0}));
  EXPECT_EQ(m.emitted(), 10'001u);
}

TEST(Merger, ExpectedSeqAdvances) {
  Simulator sim;
  obs::MetricsRegistry metrics;
  Merger m(&sim, metrics, 1, 4);
  EXPECT_EQ(m.expected_seq(), 0u);
  EXPECT_TRUE(m.try_push(0, Tuple{0}));
  EXPECT_TRUE(m.try_push(0, Tuple{1}));
  EXPECT_EQ(m.expected_seq(), 2u);
}

TEST(Merger, ManyConnectionsRoundRobinOrder) {
  Simulator sim;
  const int n = 8;
  obs::MetricsRegistry metrics;
  Merger m(&sim, metrics, n, 64);
  std::vector<std::uint64_t> out;
  m.set_on_emit([&](const Tuple& t) { out.push_back(t.seq); });
  // Deliver seqs in a scrambled-but-per-connection-FIFO pattern:
  // connection j gets seqs j, j+n, j+2n... delivered all at once, in
  // reverse connection order.
  for (int j = n - 1; j >= 0; --j) {
    for (std::uint64_t k = 0; k < 5; ++k) {
      ASSERT_TRUE(m.try_push(j, Tuple{static_cast<std::uint64_t>(j) + k * n}));
    }
  }
  ASSERT_EQ(out.size(), 40u);
  for (std::uint64_t s = 0; s < out.size(); ++s) EXPECT_EQ(out[s], s);
}

}  // namespace
}  // namespace slb::sim
