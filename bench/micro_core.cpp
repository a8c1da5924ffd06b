// Micro-benchmarks (google-benchmark) for the core algorithms: the Fox
// greedy RAP solver (the paper claims O(N + R log N)), the bisection
// solver the tests cross-check it with, PAVA monotone regression,
// rate-function maintenance, smooth WRR picking, the clustering distance
// matrix, the merger's ordered release, and the simulator's event engine
// beside the plain priority-queue engine it replaced.
#include <benchmark/benchmark.h>

#include <array>
#include <memory>
#include <utility>
#include <vector>

#include "core/clustering.h"
#include "core/controller.h"
#include "core/monotone_regression.h"
#include "core/policies.h"
#include "core/rap.h"
#include "core/rate_function.h"
#include "core/wrr.h"
#include "delivery/release_core.h"
#include "obs/metrics.h"
#include "reference_core.h"
#include "reference_event.h"
#include "sim/region.h"
#include "util/rng.h"
#include "util/time.h"

namespace slb {
namespace {

using testref::RapProblem;

// ---- RAP solvers ---------------------------------------------------------

RapProblem make_problem(int n) {
  RapProblem p;
  p.total = kWeightUnits;
  p.vars.assign(static_cast<std::size_t>(n),
                RapVariable{0, kWeightUnits});
  p.eval = [](int j, Weight w) {
    // Heterogeneous linear blocking curves; cheap to evaluate so the
    // benchmark measures solver overhead, not eval cost.
    return static_cast<double>(w) * (1.0 + 0.03 * (j % 17));
  };
  return p;
}

void BM_FoxGreedy(benchmark::State& state) {
  const RapProblem p = make_problem(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_fox(p));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FoxGreedy)->RangeMultiplier(4)->Range(2, 512)->Complexity();

void BM_BisectSolver(benchmark::State& state) {
  const RapProblem p = make_problem(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_bisect(p));
  }
}
BENCHMARK(BM_BisectSolver)->RangeMultiplier(4)->Range(2, 128);

// ---- PAVA ----------------------------------------------------------------

void BM_IsotonicFit(benchmark::State& state) {
  Rng rng(1);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<double> y(n);
  std::vector<double> w(n, 1.0);
  for (auto& v : y) v = rng.uniform(0, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(isotonic_fit(y, w));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_IsotonicFit)->RangeMultiplier(4)->Range(16, 4096)->Complexity();

// ---- RateFunction maintenance ---------------------------------------------

void BM_RateFunctionObserveAndFit(benchmark::State& state) {
  Rng rng(2);
  RateFunction f;
  for (int i = 0; i < 100; ++i) {
    f.observe(static_cast<Weight>(1 + rng.below(kWeightUnits)),
              rng.uniform(0, 1));
  }
  for (auto _ : state) {
    f.observe(static_cast<Weight>(1 + rng.below(kWeightUnits)),
              rng.uniform(0, 1));
    benchmark::DoNotOptimize(f.value(500));
  }
}
BENCHMARK(BM_RateFunctionObserveAndFit);

void BM_RateFunctionDecay(benchmark::State& state) {
  Rng rng(3);
  RateFunction f;
  for (int i = 0; i < 200; ++i) {
    f.observe(static_cast<Weight>(1 + rng.below(kWeightUnits)),
              rng.uniform(0, 1));
  }
  for (auto _ : state) {
    f.decay_above(300, 0.9);
    benchmark::DoNotOptimize(f.value(900));
  }
}
BENCHMARK(BM_RateFunctionDecay);

// ---- WRR -------------------------------------------------------------------

/// Weights halving down the connections, the rest on the last one.
WeightVector skewed_weights(int n, Rng& rng) {
  WeightVector w(static_cast<std::size_t>(n));
  Weight left = kWeightUnits;
  for (int j = 0; j < n - 1; ++j) {
    w[static_cast<std::size_t>(j)] = static_cast<Weight>(
        rng.below(static_cast<std::uint64_t>(left / 2) + 1));
    left -= w[static_cast<std::size_t>(j)];
  }
  w[static_cast<std::size_t>(n - 1)] = left;
  return w;
}

void BM_SmoothWrrPick(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  SmoothWrr wrr(n);
  Rng rng(4);
  wrr.set_weights(skewed_weights(n, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(wrr.pick());
  }
}
BENCHMARK(BM_SmoothWrrPick)->RangeMultiplier(4)->Range(2, 128);

// BM_SmoothWrrPick never changes its weights, so after the first cycles
// it times replayed picks only. The re-weighted rows change the weights
// every 4,050 picks, the rate sim-fanout64 re-weights at (1,898,158 picks
// over 469 controller ticks), so they include the scanned cycles and the
// replay rebuild that follow each change. `next` makes each new vector.
template <class Next>
void reweighted_picks(benchmark::State& state, WeightVector w, Next next) {
  constexpr int kPicksPerTick = 4050;
  SmoothWrr wrr(static_cast<int>(w.size()));
  wrr.set_weights(w);
  int until_reweight = kPicksPerTick;
  for (auto _ : state) {
    if (--until_reweight == 0) {
      until_reweight = kPicksPerTick;
      next(w);
      wrr.set_weights(w);
    }
    benchmark::DoNotOptimize(wrr.pick());
  }
}

// Skewed random weights, almost all distinct; each change moves one unit
// between two connections.
void BM_SmoothWrrPickReweighted(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(4);
  reweighted_picks(state, skewed_weights(n, rng), [&](WeightVector& w) {
    const auto un = static_cast<std::uint64_t>(n);
    std::uint64_t from = rng.below(un);
    while (w[from] == 0) from = (from + 1) % un;
    const std::uint64_t to = (from + 1 + rng.below(un - 1)) % un;
    --w[from];
    ++w[to];
  });
}
BENCHMARK(BM_SmoothWrrPickReweighted)->Arg(2)->Arg(16)->Arg(64);

// sim-fanout64's shape: clustering gives every member of a cluster the
// same share, so its 64-connection vectors hold only 4.4-6.2 distinct
// weights per re-weight (seed 1). Here connection j belongs to cluster
// j % 3, and each change draws new cluster shares, each split evenly
// over the cluster's members: at most six distinct weights.
void BM_SmoothWrrPickReweightedClustered(benchmark::State& state) {
  constexpr std::size_t kClusters = 3;
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  auto clustered = [&](WeightVector& w) {
    Weight left = kWeightUnits;
    for (std::size_t c = 0; c < kClusters; ++c) {
      const Weight share =
          c + 1 == kClusters
              ? left
              : static_cast<Weight>(
                    rng.below(static_cast<std::uint64_t>(left) / 2 + 1));
      left -= share;
      const auto size = static_cast<Weight>((n - c + kClusters - 1) / kClusters);
      Weight extra = share % size;
      for (std::size_t j = c; j < n; j += kClusters) {
        w[j] = share / size + (extra > 0 ? 1 : 0);
        if (extra > 0) --extra;
      }
    }
  };
  WeightVector w(n);
  clustered(w);
  reweighted_picks(state, w, clustered);
}
BENCHMARK(BM_SmoothWrrPickReweightedClustered)->Arg(64);

// ---- ordered release --------------------------------------------------------

// One merger arrival: connection seq % N delivers the expected sequence,
// which the release emits, then the freed connections are collected (the
// sim merger's per-drain work). Per-arrival cost against N shows whether
// the release scan grows with the connection count.
void BM_ReleaseCoreArrival(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  obs::MetricsRegistry metrics;
  delivery::ReleaseCore<std::uint64_t> core(metrics, n,
                                            delivery::DeliveryMode::kGapSkip);
  std::uint64_t seq = 0;
  std::uint64_t released = 0;
  int freed = 0;
  for (auto _ : state) {
    core.offer(static_cast<int>(seq % static_cast<std::uint64_t>(n)), seq);
    core.release([&](int, std::uint64_t) {
      ++released;
      return true;
    });
    core.take_freed([&](int) { ++freed; });
    ++seq;
  }
  benchmark::DoNotOptimize(released);
  benchmark::DoNotOptimize(freed);
  state.SetItemsProcessed(static_cast<std::int64_t>(released));
}
BENCHMARK(BM_ReleaseCoreArrival)->Arg(2)->Arg(8)->Arg(64)->Arg(128);

// Fan-out arrivals: sequence s travels on connection s % N, and in each
// round of N sequences the connections deliver in a random order, so most
// arrivals wait above the cursor until the lowest of their round lands.
// This is the out-of-order shape a merger sees behind a busy region; the
// in-order row above never files a head above the cursor.
void BM_ReleaseCoreReorder(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<int> order;  // connection of each arrival over 256 rounds
  std::vector<int> round(static_cast<std::size_t>(n));
  Rng rng(1);
  for (int r = 0; r < 256; ++r) {
    for (int j = 0; j < n; ++j) round[static_cast<std::size_t>(j)] = j;
    for (std::size_t i = round.size() - 1; i > 0; --i) {
      std::swap(round[i], round[rng.below(i + 1)]);
    }
    order.insert(order.end(), round.begin(), round.end());
  }
  obs::MetricsRegistry metrics;
  delivery::ReleaseCore<std::uint64_t> core(metrics, n,
                                            delivery::DeliveryMode::kGapSkip);
  std::vector<std::uint64_t> next(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) next[static_cast<std::size_t>(j)] = j;
  std::size_t k = 0;
  std::uint64_t released = 0;
  int freed = 0;
  for (auto _ : state) {
    const auto j = static_cast<std::size_t>(order[k]);
    k = k + 1 == order.size() ? 0 : k + 1;
    core.offer(static_cast<int>(j), next[j]);
    next[j] += static_cast<std::uint64_t>(n);
    core.release([&](int, std::uint64_t) {
      ++released;
      return true;
    });
    core.take_freed([&](int) { ++freed; });
  }
  benchmark::DoNotOptimize(released);
  benchmark::DoNotOptimize(freed);
  state.SetItemsProcessed(static_cast<std::int64_t>(released));
}
BENCHMARK(BM_ReleaseCoreReorder)->Arg(8)->Arg(64);

// ---- full controller update -------------------------------------------------

void BM_ControllerUpdate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ControllerConfig cfg;
  cfg.enable_clustering = n >= 32;
  LoadBalanceController controller(n, cfg);
  std::vector<DurationNs> cumulative(static_cast<std::size_t>(n), 0);
  TimeNs now = 0;
  Rng rng(9);
  // Warm up past the baseline sample.
  controller.update(now += seconds(1), cumulative);
  for (auto _ : state) {
    now += seconds(1);
    cumulative[rng.below(static_cast<std::uint64_t>(n))] += millis(500);
    benchmark::DoNotOptimize(controller.update(now, cumulative));
  }
}
BENCHMARK(BM_ControllerUpdate)->RangeMultiplier(4)->Range(4, 64);

// ---- simulator send path ----------------------------------------------------

// Splitter hot path in isolation: channels drained the instant a tuple
// arrives, so every simulated event is splitter work (policy pick, push,
// event scheduling, the splitter's own registry updates). A change to the
// send path is timed as parent vs change on this row (EXPERIMENTS.md).
void BM_SimSplitterSend(benchmark::State& state) {
  const int n = 4;
  sim::Simulator sim;
  sim::Channel::Config chan_cfg;
  chan_cfg.send_capacity = 64;
  chan_cfg.recv_capacity = 64;
  chan_cfg.latency = 1000;
  std::vector<std::unique_ptr<sim::Channel>> channels;
  std::vector<sim::Channel*> ptrs;
  for (int j = 0; j < n; ++j) {
    channels.push_back(std::make_unique<sim::Channel>(&sim, j, chan_cfg));
    sim::Channel* c = channels.back().get();
    c->set_on_recv_ready([c] {
      while (!c->recv_empty()) c->pop_recv();
    });
    ptrs.push_back(c);
  }
  RoundRobinPolicy policy(n);
  obs::MetricsRegistry registry;
  sim::Splitter splitter(&sim, registry, "splitter.", &policy, ptrs,
                         /*send_overhead=*/500);
  splitter.start();
  std::uint64_t prev_sent = 0;
  std::uint64_t items = 0;
  TimeNs until = 0;
  for (auto _ : state) {
    until += millis(5);
    sim.run_until(until);
    const std::uint64_t sent = splitter.total_sent();
    items += sent - prev_sent;
    prev_sent = sent;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(items));
}
BENCHMARK(BM_SimSplitterSend);

// Whole-region variant: splitter counters, worker service histograms,
// merger emit/reorder metrics and policy gauges all ride along, so this
// row bounds the full pipeline's per-tuple cost, not just the send path.
void BM_SimRegionSend(benchmark::State& state) {
  sim::RegionConfig cfg;
  cfg.workers = 4;
  cfg.base_cost = micros(4);
  cfg.send_overhead = 500;
  cfg.sample_period = millis(10);
  // The paper's rule, as in every figure, so the row times the same
  // decisions from one build to the next.
  sim::Region region(cfg,
                     std::make_unique<BlockingRatePolicy>(cfg.workers));
  region.start();
  std::uint64_t prev_sent = 0;
  std::uint64_t items = 0;
  for (auto _ : state) {
    region.run_for(millis(5));
    const std::uint64_t sent = region.splitter().total_sent();
    items += sent - prev_sent;
    prev_sent = sent;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(items));
}
BENCHMARK(BM_SimRegionSend);

// ---- event engine -----------------------------------------------------------

// The shape of the two per-tuple hot events (the channel's wire delivery
// and the worker's service completion): a pointer plus a tuple and an
// epoch, 32 bytes.
struct ChurnEvent {
  std::uint64_t* sum;
  std::uint64_t a;
  std::uint64_t b;
  std::uint64_t c;
  void operator()() const { *sum += a ^ b ^ c; }
};
static_assert(sizeof(ChurnEvent) == 32);

// Steady state of a busy simulation: 200 events pending, and each
// iteration schedules one 32-byte event at a random delay and fires the
// earliest. The time per iteration is the engine's cost per event, the
// layer number beside perfbench's sim.self_ns_per_event; the
// ReferenceSimulator row is the std::function priority queue it replaced.
template <class Sim>
void BM_SimulatorEventChurn(benchmark::State& state) {
  constexpr std::size_t kPending = 200;
  constexpr std::size_t kDelays = 1024;
  Rng rng(11);
  std::vector<DurationNs> delays(kDelays);
  for (auto& d : delays) d = static_cast<DurationNs>(rng.below(2000));
  std::uint64_t sum = 0;
  Sim sim;
  std::uint64_t i = 0;
  for (; i < kPending; ++i) {
    sim.schedule_after(delays[i % kDelays], ChurnEvent{&sum, i, i, i});
  }
  for (auto _ : state) {
    sim.schedule_after(delays[i % kDelays], ChurnEvent{&sum, i, ~i, i >> 3});
    sim.step();
    ++i;
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_TEMPLATE(BM_SimulatorEventChurn, sim::Simulator);
BENCHMARK_TEMPLATE(BM_SimulatorEventChurn, testref::ReferenceSimulator);

// The same event, tagged with its delay class for the region-mix row.
struct MixEvent {
  int* fired_class;
  int cls;
  std::uint64_t* sum;
  std::uint64_t a;
  void operator()() const {
    *fired_class = cls;
    *sum += a;
  }
};
static_assert(sizeof(MixEvent) == 32);

// The delay mix of a sim region (sim-fanout64 schedules 99.8% of its
// events at three delays): 64 service completions (600 us, the first
// ones staggered across one service time) always pending, plus send
// pacing (100 ns) and wire deliveries (2 us) in equal shares. Each
// iteration fires the earliest event and schedules its successor: a
// service completion after a service completion, otherwise the next of
// the two short delays in turn.
template <class Sim>
void BM_SimulatorEventChurnRegionMix(benchmark::State& state) {
  constexpr int kService = 2;
  constexpr std::array<DurationNs, 3> kDelay{100, micros(2), micros(600)};
  constexpr int kPendingService = 64;
  constexpr int kPendingShort = 8;
  int fired = 0;
  int next_short = 0;
  std::uint64_t sum = 0;
  Sim sim;
  std::uint64_t i = 0;
  for (int k = 0; k < kPendingService; ++k, ++i) {
    sim.schedule_after(kDelay[kService] * (k + 1) / kPendingService,
                       MixEvent{&fired, kService, &sum, i});
  }
  for (int k = 0; k < kPendingShort; ++k, ++i) {
    sim.schedule_after(kDelay[static_cast<std::size_t>(next_short)],
                       MixEvent{&fired, next_short, &sum, i});
    next_short ^= 1;
  }
  for (auto _ : state) {
    sim.step();
    int cls = kService;
    if (fired != kService) {
      cls = next_short;
      next_short ^= 1;
    }
    sim.schedule_after(kDelay[static_cast<std::size_t>(cls)],
                       MixEvent{&fired, cls, &sum, i});
    ++i;
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_TEMPLATE(BM_SimulatorEventChurnRegionMix, sim::Simulator);
BENCHMARK_TEMPLATE(BM_SimulatorEventChurnRegionMix,
                   testref::ReferenceSimulator);

// ---- clustering -------------------------------------------------------------

void BM_ClusterFunctions(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(5);
  std::vector<RateFunction> fns(static_cast<std::size_t>(n));
  for (auto& f : fns) {
    const Weight knee = static_cast<Weight>(50 + rng.below(900));
    for (Weight w = 50; w <= kWeightUnits; w += 50) {
      f.observe(w, w <= knee ? 0.0 : 0.001 * (w - knee));
    }
    benchmark::DoNotOptimize(f.value(500));  // force the fit outside timing
  }
  std::vector<const RateFunction*> ptrs;
  for (const auto& f : fns) ptrs.push_back(&f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster_functions(ptrs, kClusterThreshold));
  }
}
BENCHMARK(BM_ClusterFunctions)->RangeMultiplier(2)->Range(8, 64);

}  // namespace
}  // namespace slb

BENCHMARK_MAIN();
