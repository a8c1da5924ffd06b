// Micro-benchmarks (google-benchmark) for the core algorithms: the Fox
// greedy RAP solver (the paper claims O(N + R log N)), the bisection
// solver the tests cross-check it with, PAVA monotone regression,
// rate-function maintenance, smooth WRR picking, the clustering distance
// matrix, the merger's ordered release, and the simulator's event engine
// beside the plain priority-queue engine it replaced.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/clustering.h"
#include "core/controller.h"
#include "core/monotone_regression.h"
#include "core/policies.h"
#include "core/rap.h"
#include "core/rate_function.h"
#include "core/wrr.h"
#include "delivery/release_core.h"
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
// it times replayed picks only. Here a unit moves between two connections
// every 4,050 picks, the rate sim-fanout64 re-weights at (1,898,158 picks
// over 469 controller ticks), so the row includes the scanned cycles and
// the replay rebuild that follow each change.
void BM_SmoothWrrPickReweighted(benchmark::State& state) {
  constexpr int kPicksPerTick = 4050;
  const int n = static_cast<int>(state.range(0));
  SmoothWrr wrr(n);
  Rng rng(4);
  WeightVector w = skewed_weights(n, rng);
  wrr.set_weights(w);
  int until_reweight = kPicksPerTick;
  for (auto _ : state) {
    if (--until_reweight == 0) {
      until_reweight = kPicksPerTick;
      const auto un = static_cast<std::uint64_t>(n);
      std::uint64_t from = rng.below(un);
      while (w[from] == 0) from = (from + 1) % un;
      const std::uint64_t to = (from + 1 + rng.below(un - 1)) % un;
      --w[from];
      ++w[to];
      wrr.set_weights(w);
    }
    benchmark::DoNotOptimize(wrr.pick());
  }
}
BENCHMARK(BM_SmoothWrrPickReweighted)->Arg(2)->Arg(16)->Arg(64);

// ---- ordered release --------------------------------------------------------

// One merger arrival: connection seq % N delivers the expected sequence,
// which the release emits, then the freed connections are collected (the
// sim merger's per-drain work). Per-arrival cost against N shows whether
// the release scan grows with the connection count.
void BM_ReleaseCoreArrival(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  delivery::ReleaseCore<std::uint64_t> core(n,
                                            delivery::DeliveryMode::kGapSkip);
  std::uint64_t seq = 0;
  std::uint64_t released = 0;
  int freed = 0;
  for (auto _ : state) {
    core.offer(static_cast<int>(seq % static_cast<std::uint64_t>(n)), seq);
    core.release(0, [&](int, std::uint64_t) {
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

// ---- observability overhead -------------------------------------------------

// Splitter hot path in isolation: channels drained the instant a tuple
// arrives, so every simulated event is splitter work (policy pick, push,
// event scheduling) plus — with Arg 1 — the splitter's own registry
// updates. The relative gap between the two rows is the instrumentation
// overhead on the send path quoted in EXPERIMENTS.md (§8 target: <= 2%).
void BM_SimSplitterSend(benchmark::State& state) {
  const bool metrics_on = state.range(0) != 0;
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
  sim::Splitter splitter(&sim, &policy, /*send_overhead=*/500);
  splitter.wire(ptrs);
  obs::MetricsRegistry registry;
  if (metrics_on) {
    sim::SplitterMetrics sm;
    sm.sent = &registry.counter("splitter.sent");
    sm.blocks = &registry.counter("splitter.blocks");
    sm.block_ns = &registry.histogram("splitter.block_ns");
    sm.failovers = &registry.counter("splitter.failovers");
    sm.rerouted = &registry.counter("splitter.rerouted");
    sm.shed = &registry.counter("splitter.shed");
    splitter.set_metrics(sm);
  }
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
  state.SetLabel(metrics_on ? "metrics-on" : "metrics-off");
}
BENCHMARK(BM_SimSplitterSend)->Arg(0)->Arg(1);

// Whole-region variant: RegionConfig::metrics toggles *every* component's
// instrumentation (splitter counters, worker service histograms, merger
// emit/reorder metrics, policy gauges), so this row bounds the full
// pipeline's per-tuple cost, not just the send path.
void BM_SimRegionSend(benchmark::State& state) {
  sim::RegionConfig cfg;
  cfg.workers = 4;
  cfg.base_cost = micros(4);
  cfg.send_overhead = 500;
  cfg.sample_period = millis(10);
  cfg.metrics = state.range(0) != 0;
  sim::Region region(cfg,
                     std::make_unique<LoadBalancingPolicy>(cfg.workers));
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
  state.SetLabel(cfg.metrics ? "metrics-on" : "metrics-off");
}
BENCHMARK(BM_SimRegionSend)->Arg(0)->Arg(1);

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
    benchmark::DoNotOptimize(cluster_functions(ptrs, {}));
  }
}
BENCHMARK(BM_ClusterFunctions)->RangeMultiplier(2)->Range(8, 64);

}  // namespace
}  // namespace slb

BENCHMARK_MAIN();
