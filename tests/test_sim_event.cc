// Tests for the discrete-event engine: its ordering contract, the
// lifetime of the callables it stores, and a differential oracle against
// the plain priority-queue engine (tests/reference_event.h).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "reference_event.h"
#include "run_until_idle.h"
#include "sim/event.h"
#include "util/rng.h"

namespace slb::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  run_until_idle(sim);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, SameTimeEventsRunInInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  run_until_idle(sim);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ScheduleAfterIsRelative) {
  Simulator sim;
  TimeNs seen = -1;
  sim.schedule_at(100, [&] {
    sim.schedule_after(50, [&] { seen = sim.now(); });
  });
  run_until_idle(sim);
  EXPECT_EQ(seen, 150);
}

TEST(Simulator, ZeroDelayEventsRunAtSameTime) {
  Simulator sim;
  int depth = 0;
  sim.schedule_at(7, [&] {
    sim.schedule_after(0, [&] {
      ++depth;
      EXPECT_EQ(sim.now(), 7);
    });
  });
  run_until_idle(sim);
  EXPECT_EQ(depth, 1);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10, [&] { ++fired; });
  sim.schedule_at(20, [&] { ++fired; });
  sim.run_until(15);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 15);  // clock advances to the deadline
  sim.run_until(25);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventAtExactDeadlineRuns) {
  Simulator sim;
  bool fired = false;
  sim.schedule_at(10, [&] { fired = true; });
  sim.run_until(10);
  EXPECT_TRUE(fired);
}

TEST(Simulator, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.step());
  sim.schedule_at(1, [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, StopInterruptsRunWhile) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1, [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_at(2, [&] { ++fired; });
  sim.run_while(100);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 1);  // stopped at the event, not at the deadline
  EXPECT_FALSE(sim.idle());
  sim.run_while(100);  // resumes past the stop
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CountsEvents) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule_at(i, [] {});
  run_until_idle(sim);
  EXPECT_EQ(sim.events_processed(), 5u);
}

TEST(Simulator, EventsCanScheduleManyMore) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 1000) sim.schedule_after(1, chain);
  };
  sim.schedule_at(0, chain);
  run_until_idle(sim);
  EXPECT_EQ(count, 1000);
  EXPECT_EQ(sim.now(), 999);
}

// ---- callable lifetime ------------------------------------------------------

// Schedules enough events that the slab must grow, relocating every
// callable already pending.
void grow_slab(Simulator& sim) {
  for (int i = 0; i < 200; ++i) sim.schedule_at(1000 + i, [] {});
}

// A callable that tracks its own live copies: each construction adds its
// address, each destruction removes it, and a second destruction of the
// same object fails the erase check.
struct Probe {
  std::set<const Probe*>* live;
  int* calls;
  Probe(std::set<const Probe*>* l, int* c) : live(l), calls(c) {
    live->insert(this);
  }
  Probe(Probe&& o) noexcept : live(o.live), calls(o.calls) {
    live->insert(this);
  }
  ~Probe() { EXPECT_EQ(live->erase(this), 1u); }
  void operator()() {
    EXPECT_EQ(live->count(this), 1u);
    ++*calls;
  }
};

TEST(Simulator, CallableRelocatedAndDestroyedExactlyOnce) {
  std::set<const Probe*> live;
  int calls = 0;
  {
    Simulator sim;
    sim.schedule_at(5, Probe(&live, &calls));
    EXPECT_EQ(live.size(), 1u);  // the temporary is gone, the slot's copy lives
    grow_slab(sim);
    EXPECT_EQ(live.size(), 1u);  // relocation destroyed the source
    sim.run_until(5);
    EXPECT_EQ(calls, 1);
    EXPECT_TRUE(live.empty());
    run_until_idle(sim);
  }
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(live.empty());
}

TEST(Simulator, SharedCaptureReleasedAfterFiring) {
  auto token = std::make_shared<int>(0);
  Simulator sim;
  sim.schedule_at(5, [token] { ++*token; });
  EXPECT_EQ(token.use_count(), 2);
  grow_slab(sim);
  EXPECT_EQ(token.use_count(), 2);
  run_until_idle(sim);
  EXPECT_EQ(*token, 1);
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Simulator, MoveOnlyCaptureRuns) {
  int seen = 0;
  Simulator sim;
  auto owned = std::make_unique<int>(42);
  sim.schedule_at(5, [p = std::move(owned), &seen] { seen = *p; });
  grow_slab(sim);
  run_until_idle(sim);
  EXPECT_EQ(seen, 42);
}

TEST(Simulator, LvalueFunctionIsCopiedPerSchedule) {
  // The way test_sink's `drain` reschedules itself: the engine stores a
  // copy and leaves the caller's function intact.
  auto token = std::make_shared<int>(0);
  std::function<void()> fn = [token] { ++*token; };
  Simulator sim;
  sim.schedule_after(0, fn);
  sim.schedule_after(3, fn);
  EXPECT_EQ(token.use_count(), 4);  // token, fn and two stored copies
  grow_slab(sim);
  EXPECT_EQ(token.use_count(), 4);
  run_until_idle(sim);
  EXPECT_EQ(*token, 2);
  EXPECT_EQ(token.use_count(), 2);
  ASSERT_TRUE(static_cast<bool>(fn));
  fn();
  EXPECT_EQ(*token, 3);
}

TEST(Simulator, PendingCallablesReleasedOnDestruction) {
  auto token = std::make_shared<int>(0);
  std::set<const Probe*> live;
  int calls = 0;
  {
    Simulator sim;
    for (int i = 0; i < 50; ++i) sim.schedule_at(i, [token] { ++*token; });
    sim.schedule_at(100, Probe(&live, &calls));
    grow_slab(sim);
    sim.run_until(20);  // 21 fired, their slots recycled
    for (int i = 0; i < 10; ++i) sim.schedule_after(1, [token] { ++*token; });
    EXPECT_EQ(token.use_count(), 1 + 29 + 10);
  }
  EXPECT_EQ(*token, 21);
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(calls, 0);
  EXPECT_TRUE(live.empty());
}

// ---- callables in lane cells ------------------------------------------------

// The cases above keep the callables they check in slab slots: each of
// their delays is new, so it goes to the heap. A delay sent to the heap
// and then seen again claims a lane (event.h), so after one no-op at
// kRecurring every later event at that delay waits in a cell of its
// lane's ring.
constexpr TimeNs kRecurring = 5;

void claim_lane(Simulator& sim) { sim.schedule_after(kRecurring, [] {}); }

// Schedules enough events at kRecurring that its lane's ring must grow,
// relocating every callable already pending in it.
void grow_lane(Simulator& sim) {
  for (int i = 0; i < 200; ++i) sim.schedule_after(kRecurring, [] {});
}

TEST(Simulator, LaneCellCallableRelocatedAndDestroyedExactlyOnce) {
  std::set<const Probe*> live;
  int calls = 0;
  {
    Simulator sim;
    claim_lane(sim);
    sim.schedule_after(kRecurring, Probe(&live, &calls));
    EXPECT_EQ(live.size(), 1u);  // the temporary is gone, the cell's copy lives
    grow_lane(sim);
    EXPECT_EQ(live.size(), 1u);  // relocation destroyed the source
    sim.step();
    sim.step();
    EXPECT_EQ(calls, 1);
    EXPECT_TRUE(live.empty());
    run_until_idle(sim);
  }
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(live.empty());
}

TEST(Simulator, LaneCellSharedCaptureReleasedAfterFiring) {
  auto token = std::make_shared<int>(0);
  Simulator sim;
  claim_lane(sim);
  sim.schedule_after(kRecurring, [token] { ++*token; });
  sim.schedule_after(kRecurring,
                     std::function<void()>([token] { ++*token; }));
  EXPECT_EQ(token.use_count(), 3);
  grow_lane(sim);
  EXPECT_EQ(token.use_count(), 3);
  run_until_idle(sim);
  EXPECT_EQ(*token, 2);
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Simulator, LaneCellMoveOnlyCaptureRuns) {
  int seen = 0;
  Simulator sim;
  claim_lane(sim);
  auto owned = std::make_unique<int>(42);
  sim.schedule_after(kRecurring, [p = std::move(owned), &seen] { seen = *p; });
  grow_lane(sim);
  run_until_idle(sim);
  EXPECT_EQ(seen, 42);
}

TEST(Simulator, LaneCellPendingCallablesReleasedOnDestruction) {
  auto token = std::make_shared<int>(0);
  std::set<const Probe*> live;
  int calls = 0;
  {
    Simulator sim;
    claim_lane(sim);
    for (int i = 0; i < 20; ++i) {
      sim.schedule_after(kRecurring, [token] { ++*token; });
    }
    // The heap's no-op and the first ten lane events fire: the ring's
    // head moves on, so the cells pushed below wrap around its end, and
    // the ring then grows from a wrapped state.
    for (int i = 0; i < 11; ++i) sim.step();
    sim.schedule_after(kRecurring, Probe(&live, &calls));
    sim.schedule_after(kRecurring,
                       std::function<void()>([token] { ++*token; }));
    sim.schedule_after(kRecurring,
                       [p = std::make_unique<int>(1), &calls] { calls += *p; });
    for (int i = 0; i < 20; ++i) {
      sim.schedule_after(kRecurring, [token] { ++*token; });
    }
    EXPECT_EQ(token.use_count(), 1 + 10 + 1 + 20);
    EXPECT_EQ(live.size(), 1u);
  }
  EXPECT_EQ(*token, 10);
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(calls, 0);
  EXPECT_TRUE(live.empty());
}

// ---- differential oracle ----------------------------------------------------

struct OracleKnobs {
  TimeNs max_delay = 10;
  double stop_chance = 0.02;
  int burst = 0;  // events one early event schedules from inside its call
  int ops = 400;
  // When non-empty, delays come from this palette, except that with
  // probability `rare` a draw is uniform in {0, ..., max_delay}.
  std::vector<TimeNs> palette;
  double rare = 0;
};

// One seeded random program on engine `Sim`. Each event appends (id, now)
// to the trace and draws its follow-ups from the program's own generator,
// so two engines stay in lockstep exactly as long as they fire the same
// events in the same order. Delays are drawn from {0, ..., max_delay}
// (or the knobs' palette), so a small max_delay makes most events tie on
// time.
template <class Sim>
class Program {
 public:
  Program(std::uint64_t seed, const OracleKnobs& k)
      : rng_(seed),
        max_delay_(k.max_delay),
        stop_chance_(k.stop_chance),
        palette_(k.palette),
        rare_(k.rare) {}

  Sim sim;
  std::vector<std::pair<int, TimeNs>> trace;

  /// Schedules an event with up to `depth` generations of follow-ups,
  /// absolutely at now() + `delay` or relatively after `delay`.
  void add(bool absolute, TimeNs delay, int depth) {
    const int id = next_id_++;
    // Three callable shapes: trivially relocatable, a shared_ptr capture
    // (32 bytes, like the channel and worker lambdas) and a std::function.
    switch (id % 3) {
      case 0:
        put(absolute, delay, [this, id, depth] { fire(id, depth); });
        break;
      case 1:
        put(absolute, delay,
            [this, id, depth, token = std::make_shared<int>(id)] {
              EXPECT_EQ(*token, id);
              fire(id, depth);
            });
        break;
      default:
        put(absolute, delay,
            std::function<void()>([this, id, depth] { fire(id, depth); }));
        break;
    }
  }

  TimeNs draw_delay() {
    if (!palette_.empty() && !rng_.chance(rare_)) {
      return palette_[rng_.below(palette_.size())];
    }
    return static_cast<TimeNs>(rng_.below(static_cast<std::uint64_t>(
        max_delay_ + 1)));
  }

  /// Schedules an event that, when it runs, schedules `count` more events
  /// and then reads its own capture: with few events pending the slab and
  /// the lanes must grow inside the call, relocating the stored callables
  /// under it.
  void add_burst(int count) {
    const int id = next_id_++;
    sim.schedule_after(0, [this, id, count,
                           token = std::make_shared<int>(id)] {
      trace.emplace_back(id, sim.now());
      for (int i = 0; i < count; ++i) add(i % 2 == 0, draw_delay(), 0);
      trace.emplace_back(-*token, sim.now());
    });
  }

 private:
  template <class F>
  void put(bool absolute, TimeNs delay, F&& fn) {
    if (absolute) {
      sim.schedule_at(sim.now() + delay, std::forward<F>(fn));
    } else {
      sim.schedule_after(delay, std::forward<F>(fn));
    }
  }

  void fire(int id, int depth) {
    trace.emplace_back(id, sim.now());
    if (rng_.chance(stop_chance_)) sim.stop();
    if (depth == 0) return;
    const auto children = rng_.below(3);
    for (std::uint64_t i = 0; i < children; ++i) {
      add(rng_.chance(0.5), draw_delay(), depth - 1);
    }
  }

  Rng rng_;
  TimeNs max_delay_;
  double stop_chance_;
  std::vector<TimeNs> palette_;
  double rare_;
  int next_id_ = 0;
};

template <class A, class B>
::testing::AssertionResult same_state(const Program<A>& a,
                                      const Program<B>& b) {
  if (a.trace.size() != b.trace.size()) {
    return ::testing::AssertionFailure()
           << "trace length " << a.trace.size() << " vs " << b.trace.size();
  }
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    if (a.trace[i] != b.trace[i]) {
      return ::testing::AssertionFailure()
             << "trace[" << i << "] (id " << a.trace[i].first << ", t "
             << a.trace[i].second << ") vs (id " << b.trace[i].first
             << ", t " << b.trace[i].second << ")";
    }
  }
  if (a.sim.now() != b.sim.now()) {
    return ::testing::AssertionFailure()
           << "now " << a.sim.now() << " vs " << b.sim.now();
  }
  if (a.sim.events_processed() != b.sim.events_processed()) {
    return ::testing::AssertionFailure()
           << "events " << a.sim.events_processed() << " vs "
           << b.sim.events_processed();
  }
  if (a.sim.idle() != b.sim.idle()) {
    return ::testing::AssertionFailure() << "idle differs";
  }
  return ::testing::AssertionSuccess();
}

// Drives the engine and the reference through the same random sequence of
// schedule_at / schedule_after / step / run_until / run_while calls,
// comparing trace, clock, event count and idleness after every call.
// Returns the number of events the program fired.
std::uint64_t run_oracle(std::uint64_t seed, const OracleKnobs& k) {
  Program<Simulator> fast(seed, k);
  Program<testref::ReferenceSimulator> ref(seed, k);
  Rng ops_rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  auto both = [&](auto&& op, int i) {
    op(fast);
    op(ref);
    ASSERT_TRUE(same_state(fast, ref)) << "seed " << seed << " op " << i;
  };
  if (k.burst > 0) {
    both([&](auto& p) { p.add(true, 0, 1); }, -2);
    both([&](auto& p) { p.add_burst(k.burst); }, -1);
    if (::testing::Test::HasFatalFailure()) return 0;
  }
  for (int i = 0; i < k.ops; ++i) {
    const auto kind = ops_rng.below(6);
    const TimeNs span = static_cast<TimeNs>(ops_rng.below(
        static_cast<std::uint64_t>(3 * k.max_delay + 1)));
    const bool absolute = ops_rng.chance(0.5);
    const int depth = static_cast<int>(ops_rng.below(4));
    switch (kind) {
      case 0:
      case 1:
        both([&](auto& p) {
          p.add(absolute, k.palette.empty() ? span : p.draw_delay(), depth);
        }, i);
        break;
      case 2:
        both([&](auto& p) { p.sim.step(); }, i);
        break;
      case 3:
        both([&](auto& p) { p.sim.run_until(p.sim.now() + span); }, i);
        break;
      default:
        both([&](auto& p) { p.sim.run_while(p.sim.now() + span); }, i);
        break;
    }
    if (::testing::Test::HasFatalFailure()) return 0;
  }
  both([&](auto& p) { run_until_idle(p.sim); }, k.ops);
  return fast.sim.events_processed();
}

TEST(SimulatorOracle, RandomProgramsMatchReference) {
  std::uint64_t fired = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    fired += run_oracle(seed, OracleKnobs{});
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(fired, 5000u);  // the programs are not vacuous
}

TEST(SimulatorOracle, SameTimeTiesAndZeroDelaysMatchReference) {
  // Delays of 0 or 1 only: nearly every event ties with many others, and
  // most follow-ups are zero-delay events scheduled from inside an event.
  OracleKnobs k;
  k.max_delay = 1;
  std::uint64_t fired = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    fired += run_oracle(seed, k);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(fired, 5000u);
}

TEST(SimulatorOracle, SlabGrowthInsideAnEventMatchesReference) {
  OracleKnobs k;
  k.burst = 1000;
  k.max_delay = 3;
  std::uint64_t fired = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    fired += run_oracle(seed, k);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(fired, 10000u);  // each burst alone fires 1000
}

TEST(SimulatorOracle, LaneGrowthInsideAnEventFromThatLaneMatchesReference) {
  // Every delay is 0, the burst's own delay: the burst event waits in a
  // cell of the zero-delay lane, and its thousand follow-ups grow that
  // lane's ring while the burst, popped from it, is still running.
  OracleKnobs k;
  k.burst = 1000;
  k.max_delay = 3;
  k.palette = {0};
  std::uint64_t fired = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    fired += run_oracle(seed, k);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(fired, 10000u);
}

TEST(SimulatorOracle, RunWhileStopsMatchReference) {
  OracleKnobs k;
  k.stop_chance = 0.25;
  std::uint64_t fired = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    fired += run_oracle(seed, k);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(fired, 5000u);
}

// The engine keeps Simulator::kLanes FIFO lanes of fixed-delay entries
// beside its heap (event.h). The next three cases aim at how those two
// interleave.

TEST(SimulatorOracle, MoreDelaysThanLanesMatchReference) {
  // Uniform delays in {0, ..., 1000}: most are one-offs that stay in the
  // heap, and the few that repeat claim lanes between them.
  OracleKnobs uniform;
  uniform.max_delay = 1000;
  // A palette of 12 delays recurs often enough that every delay claims a
  // lane in turn, but only 8 fit at once.
  OracleKnobs palette;
  palette.max_delay = 150;
  for (TimeNs d = 0; d < Simulator::kLanes + 4; ++d) {
    palette.palette.push_back(d * d);
  }
  std::uint64_t fired = 0;
  for (const OracleKnobs& k : {uniform, palette}) {
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
      fired += run_oracle(seed, k);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(fired, 10000u);
}

TEST(SimulatorOracle, LaneReclaimedWhileItsOldDelayWaitsInTheHeap) {
  // A scripted walk through the lane rules: a delay without a lane claims
  // a free one only if it is among the last kLanes delays sent to the
  // heap, and kLanes - 1 long filler delays keep all lanes but one busy.
  constexpr TimeNs kA = 10;
  constexpr TimeNs kB = 12;
  auto script = [](auto& p) {
    for (int f = 0; f < Simulator::kLanes - 1; ++f) {
      p.add(false, 1000 + f, 0);  // first sight: to the heap
      p.add(false, 1000 + f, 0);  // seen again: claims a lane
    }
    p.add(false, kA, 0);  // heap
    p.add(false, kA, 0);  // claims the last lane
    p.sim.run_until(10);  // both fire: A's lane is empty
    p.add(false, kB, 0);  // heap
    p.add(false, kB, 0);  // re-claims A's lane
    p.add(false, kA, 0);  // A has lost its lane: heap, at 20
    p.sim.run_until(15);
    p.add(false, kA, 0);  // heap, at 25
    p.sim.run_until(22);  // A@20, B@22, B@22: B's lane empties
    // A claims the free lane at 32 while its own entry at 25 is still in
    // the heap: the lane front must wait for the heap top.
    p.add(false, kA, 0);
    p.sim.run_until(40);
    EXPECT_EQ(p.trace.size(), 7u);
    run_until_idle(p.sim);
  };
  OracleKnobs k;
  k.stop_chance = 0;
  Program<Simulator> fast(1, k);
  Program<testref::ReferenceSimulator> ref(1, k);
  script(fast);
  script(ref);
  EXPECT_TRUE(same_state(fast, ref));
  EXPECT_EQ(fast.trace.size(), 2u * (Simulator::kLanes - 1) + 7u);
}

TEST(SimulatorOracle, RegionDelayMixMatchesReference) {
  // A region's shape, scaled down: send pacing, the wire and the service
  // time (100 ns, 2 us, 600 us) carry nearly every event, and one draw in
  // a hundred is a long one-off (a control tick, a fault, an ack).
  OracleKnobs k;
  k.palette = {1, 20, 6000};
  k.rare = 0.01;
  k.max_delay = 60000;
  std::uint64_t fired = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    fired += run_oracle(seed, k);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(fired, 5000u);
}

}  // namespace
}  // namespace slb::sim
