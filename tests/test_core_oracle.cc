// Differential tests for the load-balancing core's fast paths. Each
// drives the production code and a test-only copy of the plain algorithm
// (reference_core.h) with the same seeded inputs and requires
// bit-identical outputs:
//   * SmoothWrrOracle: cycle replay against the O(N) scan, across weight
//     changes at every kind of offset;
//   * RateFunctionOracle: knot evaluation and the knee search against the
//     dense 1001-point fit, including non-finite raw data;
//   * ClusteringOracle: the cached linkage matrix (with per-function
//     features, shared knee terms and the threshold cut-off) against the
//     full linkage rescan, and the buffered cluster merge against the map;
//   * FoxOracle: the tournament tree against the binary heap.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "core/clustering.h"
#include "core/distance.h"
#include "core/rap.h"
#include "core/rate_function.h"
#include "core/wrr.h"
#include "reference_core.h"
#include "util/rng.h"

namespace slb {
namespace {

using testref::RapProblem;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Same bits, or both NaN (a NaN's payload carries no meaning here).
bool same(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// --- SmoothWrrOracle ---------------------------------------------------

/// Random non-negative weights over n connections summing to `total`,
/// with roughly `zero_frac` of them forced to zero.
WeightVector random_weights(Rng& rng, int n, Weight total, double zero_frac) {
  WeightVector w(static_cast<std::size_t>(n), 0);
  std::vector<int> live;
  for (int j = 0; j < n; ++j) {
    if (rng.uniform() >= zero_frac) live.push_back(j);
  }
  if (live.empty()) live.push_back(static_cast<int>(rng.below(n)));
  for (Weight u = 0; u < total; ++u) {
    ++w[static_cast<std::size_t>(live[rng.below(live.size())])];
  }
  return w;
}

/// Picks `count` from both routers, comparing each pick and the weights.
void expect_same_picks(SmoothWrr& wrr, testref::ScanWrr& ref, int count,
                       const char* what) {
  ASSERT_EQ(wrr.weights(), ref.weights()) << what;
  for (int i = 0; i < count; ++i) {
    ASSERT_EQ(wrr.pick(), ref.pick()) << what << ", pick " << i;
  }
}

TEST(SmoothWrrOracle, RandomWeightChangesMatchTheScan) {
  Rng rng(12);
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 1 + static_cast<int>(rng.below(128));
    SmoothWrr wrr(n);
    testref::ScanWrr ref(n);
    WeightVector w = even_weights(n);
    for (int op = 0; op < 20; ++op) {
      const char* what = "";
      switch (rng.below(7)) {
        case 0:
          w = random_weights(rng, n, kWeightUnits, 0.2);
          what = "new weights";
          break;
        case 1:
          what = "unchanged weights";
          break;
        case 2: {
          // Move a few units between two connections.
          const auto from = rng.below(static_cast<std::uint64_t>(n));
          const auto to = rng.below(static_cast<std::uint64_t>(n));
          const Weight units = std::min<Weight>(w[from], 1 + rng.below(5));
          w[from] -= units;
          w[to] += units;
          what = "perturbed weights";
          break;
        }
        case 3:
          w = random_weights(rng, n, kWeightUnits, 0.7);
          what = "mostly zero weights";
          break;
        case 4:
          w = random_weights(rng, n, 1 + static_cast<Weight>(rng.below(999)),
                             0.3);
          what = "sum below kWeightUnits";
          break;
        case 5:
          w = random_weights(
              rng, n, kWeightUnits + 1 + static_cast<Weight>(rng.below(2000)),
              0.3);
          what = "sum above kWeightUnits";
          break;
        default:
          w.assign(static_cast<std::size_t>(n), 0);
          what = "all zero";
          break;
      }
      wrr.set_weights(w);
      ref.set_weights(w);
      // Stop anywhere: before a cycle completes, mid-replay, or after
      // several replayed cycles.
      const int picks = static_cast<int>(
          rng.below(2) == 0 ? rng.below(40) : rng.below(3500));
      expect_same_picks(wrr, ref, picks, what);
    }
  }
}

TEST(SmoothWrrOracle, WeightChangeAtEveryReplayOffset) {
  // A short cycle (sum 37) so every offset of the replayed cycle is hit.
  const WeightVector first{10, 0, 17, 3, 7};
  const WeightVector second{2, 9, 0, 20, 6};
  for (int offset = 0; offset < 3 * 37; ++offset) {
    SmoothWrr wrr(5);
    testref::ScanWrr ref(5);
    wrr.set_weights(first);
    ref.set_weights(first);
    expect_same_picks(wrr, ref, 2 * 37 + offset, "first weights");
    wrr.set_weights(second);
    ref.set_weights(second);
    expect_same_picks(wrr, ref, 4 * 37, "second weights");
  }
}

TEST(SmoothWrrOracle, WeightChangeAtStridedOffsetsOfAFullCycle) {
  Rng rng(3);
  const WeightVector first = random_weights(rng, 64, kWeightUnits, 0.1);
  for (int offset = 0; offset < kWeightUnits; offset += 37) {
    SmoothWrr wrr(64);
    testref::ScanWrr ref(64);
    wrr.set_weights(first);
    ref.set_weights(first);
    expect_same_picks(wrr, ref, 3 * kWeightUnits + offset, "first weights");
    const WeightVector next = random_weights(rng, 64, kWeightUnits, 0.3);
    wrr.set_weights(next);
    ref.set_weights(next);
    expect_same_picks(wrr, ref, 3 * kWeightUnits, "next weights");
  }
}

// --- RateFunctionOracle --------------------------------------------------

double random_rate(Rng& rng) {
  switch (rng.below(10)) {
    case 0: return 0.0;
    case 1: return kNaN;
    case 2: return kInf;
    case 3: return -rng.uniform(0.0, 1.0);
    case 4: return rng.uniform(0.0, 50.0);
    default: return rng.uniform(0.0, 1.0);
  }
}

double random_sample_weight(Rng& rng) {
  switch (rng.below(8)) {
    case 0: return 0.0;
    case 1: return -1.0;
    case 2: return kNaN;
    case 3: return kInf;
    case 4: return 0.25;
    default: return rng.uniform(0.0, 3.0);
  }
}

/// Raw points as load_raw sees them: may include weight 0, non-finite or
/// negative values, huge magnitudes, and zero, negative or infinite
/// sample weights (never NaN, which the regression rejects).
std::map<Weight, RawPoint> random_raw(Rng& rng) {
  std::map<Weight, RawPoint> raw;
  const int points = static_cast<int>(rng.below(30));
  for (int i = 0; i < points; ++i) {
    const auto w = static_cast<Weight>(rng.below(kWeightUnits + 1));
    double value = rng.uniform(0.0, 1.0);
    switch (rng.below(12)) {
      case 0: value = kNaN; break;
      case 1: value = kInf; break;
      case 2: value = -kInf; break;
      case 3: value = -rng.uniform(0.0, 2.0); break;
      case 4: value = rng.below(2) == 0 ? 1e308 : -1e308; break;
      case 5: value = 0.0; break;
      default: break;
    }
    double weight = rng.uniform(0.0, 8.0);
    switch (rng.below(8)) {
      case 0: weight = 0.0; break;
      case 1: weight = -1.0; break;
      case 2: weight = kInf; break;
      default: break;
    }
    raw[w] = RawPoint{value, weight};
  }
  return raw;
}

/// Compares every value, the knee and the raw points.
void expect_same_function(const RateFunction& f,
                          const testref::DenseRateFunction& ref,
                          const char* what) {
  ASSERT_EQ(f.raw().size(), ref.raw().size()) << what;
  auto it = ref.raw().begin();
  for (const auto& [w, p] : f.raw()) {
    ASSERT_EQ(w, it->first) << what;
    ASSERT_TRUE(same(p.value, it->second.value)) << what << " raw " << w;
    ASSERT_TRUE(same(p.weight, it->second.weight)) << what << " raw " << w;
    ++it;
  }
  for (Weight w = 0; w <= kWeightUnits; ++w) {
    ASSERT_TRUE(same(f.value(w), ref.value(w)))
        << what << " at w=" << w << ": " << f.value(w) << " vs "
        << ref.value(w);
  }
  ASSERT_EQ(f.service_rate(), ref.service_rate()) << what;
}

TEST(RateFunctionOracle, RandomOperationSequencesMatchDenseFit) {
  Rng rng(34);
  for (int trial = 0; trial < 150; ++trial) {
    RateFunctionConfig cfg;
    cfg.mix_alpha = rng.uniform(0.1, 1.0);
    cfg.max_point_weight = rng.uniform(0.5, 10.0);
    const double deltas[] = {1e-6, 1e-3, 0.05, 0.3};
    cfg.delta = deltas[rng.below(4)];
    RateFunction f(cfg);
    testref::DenseRateFunction ref(cfg);
    RateFunction donor(cfg);
    for (int op = 0; op < 40; ++op) {
      const char* what = "";
      switch (rng.below(12)) {
        case 0: {
          const double factor = rng.below(3) == 0 ? 0.9 : rng.uniform(0.0, 1.0);
          const auto w = static_cast<Weight>(rng.below(kWeightUnits + 1));
          f.decay_above(w, factor);
          ref.decay_above(w, factor);
          what = "decay_above";
          break;
        }
        case 1:
          f.reset();
          ref.reset();
          what = "reset";
          break;
        case 2: {
          const std::map<Weight, RawPoint> raw = random_raw(rng);
          f.load_raw(raw);
          ref.load_raw(raw);
          what = "load_raw";
          break;
        }
        case 3: {
          f.load_raw(donor.raw());
          ref.load_raw(std::map<Weight, RawPoint>(donor.raw().begin(),
                                                  donor.raw().end()));
          what = "load_raw from a donor";
          break;
        }
        default: {
          const auto w = static_cast<Weight>(rng.below(kWeightUnits + 1));
          const double rate = random_rate(rng);
          const double sw = random_sample_weight(rng);
          f.observe(w, rate, sw);
          ref.observe(w, rate, sw);
          donor.observe(static_cast<Weight>(rng.below(kWeightUnits + 1)),
                        rng.uniform(0.0, 1.0));
          what = "observe";
          break;
        }
      }
      expect_same_function(f, ref, what);
    }
  }
}

TEST(RateFunctionOracle, ControllerShapedFunctionsMatchDenseFit) {
  // The shapes the controller builds: zero below a knee, a ramp above,
  // light zero-blocking evidence, and repeated exploration decay.
  Rng rng(56);
  for (int trial = 0; trial < 100; ++trial) {
    RateFunction f;
    testref::DenseRateFunction ref;
    const auto knee = static_cast<Weight>(rng.below(kWeightUnits));
    const double slope = rng.uniform(1e-5, 0.05);
    for (int tick = 0; tick < 60; ++tick) {
      const auto w = static_cast<Weight>(1 + rng.below(kWeightUnits));
      const double rate =
          w <= knee ? 0.0 : slope * static_cast<double>(w - knee);
      const double sw = rate > 0.0 ? 1.0 : 0.25;
      f.observe(w, rate, sw);
      ref.observe(w, rate, sw);
      f.decay_above(w, 0.9);
      ref.decay_above(w, 0.9);
      expect_same_function(f, ref, "controller tick");
    }
  }
}

TEST(RateFunctionOracle, CurveValuesMatchPointwiseValues) {
  Rng rng(78);
  for (int trial = 0; trial < 200; ++trial) {
    RateFunction f;
    f.load_raw(random_raw(rng));
    RateCurve curve;
    curve.fit(f.raw(), f.config().delta);
    const auto from = static_cast<Weight>(rng.below(kWeightUnits + 1));
    const auto to = static_cast<Weight>(
        from + rng.below(static_cast<std::uint64_t>(kWeightUnits - from) + 1));
    std::vector<double> out(static_cast<std::size_t>(to - from + 1));
    curve.values(from, to, out.data());
    for (Weight w = from; w <= to; ++w) {
      ASSERT_TRUE(same(out[static_cast<std::size_t>(w - from)], f.value(w)))
          << "w=" << w;
      ASSERT_TRUE(same(curve.value(w), f.value(w))) << "w=" << w;
    }
  }
}

// --- ClusteringOracle ----------------------------------------------------

/// A function from one of a few templates, so copies (exactly identical
/// functions, exact zero distances and equal nonzero distances) are common.
RateFunction template_function(Rng& rng, int templates, bool jitter) {
  const int t = static_cast<int>(rng.below(static_cast<std::uint64_t>(templates)));
  RateFunction f;
  if (t == 0) return f;  // never blocked
  const Weight knee = 40 * t;
  const double slope = 0.0004 * t;
  for (Weight w = 20; w <= kWeightUnits; w += 20 * (1 + t % 3)) {
    double rate = w <= knee ? 0.0 : slope * static_cast<double>(w - knee);
    if (jitter && rate > 0.0) rate *= rng.uniform(0.9, 1.1);
    f.observe(w, rate, rate > 0.0 ? 1.0 : 0.25);
  }
  return f;
}

std::vector<const RateFunction*> pointers(const std::vector<RateFunction>& fns) {
  std::vector<const RateFunction*> out;
  for (const RateFunction& f : fns) out.push_back(&f);
  return out;
}

TEST(ClusteringOracle, RandomFunctionsMatchFullLinkageScan) {
  Rng rng(90);
  const double thresholds[] = {0.0, 0.3, 1.0, 2.5, 1e9};
  for (int trial = 0; trial < 80; ++trial) {
    const int n = 2 + static_cast<int>(rng.below(69));
    const int templates = 1 + static_cast<int>(rng.below(8));
    const bool jitter = rng.below(2) == 0;
    std::vector<RateFunction> fns;
    for (int j = 0; j < n; ++j) fns.push_back(template_function(rng, templates, jitter));
    ClusteringConfig cfg;
    cfg.threshold = thresholds[rng.below(5)];
    if (rng.below(3) == 0) cfg.distance.min_knee = rng.uniform(0.5, 50.0);
    if (rng.below(3) == 0) cfg.distance.delta = 1e-3;
    const auto ptrs = pointers(fns);
    ASSERT_EQ(cluster_functions(ptrs, cfg), testref::cluster_functions(ptrs, cfg))
        << "trial " << trial << " n=" << n;
  }
}

TEST(ClusteringOracle, IdenticalFunctionsAndExactTies) {
  Rng rng(91);
  // Three templates interleaved by index: every within-template pair ties
  // at exactly 0 and every cross-template pair ties with its copies.
  std::vector<RateFunction> fns;
  const RateFunction a = template_function(rng, 1, false);  // template 0
  RateFunction b;
  RateFunction c;
  for (Weight w = 50; w <= kWeightUnits; w += 50) {
    b.observe(w, w <= 300 ? 0.0 : 0.001 * (w - 300));
    c.observe(w, w <= 600 ? 0.0 : 0.002 * (w - 600));
  }
  for (int j = 0; j < 45; ++j) fns.push_back(j % 3 == 0 ? a : j % 3 == 1 ? b : c);
  const auto ptrs = pointers(fns);
  for (double threshold : {0.0, 0.5, 1.0, 3.0, 1e9}) {
    ClusteringConfig cfg;
    cfg.threshold = threshold;
    EXPECT_EQ(cluster_functions(ptrs, cfg), testref::cluster_functions(ptrs, cfg))
        << "threshold " << threshold;
  }
}

/// Zero up to `knee`, then flat at 0.5 through full load: its distance to
/// another such function is exactly the knee term.
RateFunction knee_step(Weight knee) {
  RateFunction f;
  f.load_raw(RawPoints{{knee - 1, RawPoint{0.0, 1.0}},
                       {knee, RawPoint{0.5, 1.0}},
                       {kWeightUnits, RawPoint{0.5, 1.0}}});
  return f;
}

TEST(ClusteringOracle, EqualDistancesAlongAChainMergeTheFirstPair) {
  // Knees doubling along a chain: neighbours tie at exactly log 2, within
  // the threshold, and every pair further apart is beyond it. Which tied
  // pair merges first decides the partition, so every index order must
  // match the full scan's first-pair rule.
  std::vector<Weight> knees{10, 20, 40, 80};
  std::sort(knees.begin(), knees.end());
  do {
    std::vector<RateFunction> fns;
    for (Weight k : knees) fns.push_back(knee_step(k));
    const auto ptrs = pointers(fns);
    ASSERT_EQ(function_distance(*ptrs[0], *ptrs[0]), 0.0);
    ClusteringConfig cfg;
    cfg.threshold = 1.0;
    ASSERT_EQ(cluster_functions(ptrs, cfg), testref::cluster_functions(ptrs, cfg))
        << "knees " << knees[0] << " " << knees[1] << " " << knees[2] << " "
        << knees[3];
  } while (std::next_permutation(knees.begin(), knees.end()));
}

TEST(ClusteringOracle, PairsAtTheThreshold) {
  Rng rng(92);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 3 + static_cast<int>(rng.below(30));
    std::vector<RateFunction> fns;
    for (int j = 0; j < n; ++j) fns.push_back(template_function(rng, 6, true));
    const auto ptrs = pointers(fns);
    const auto i = static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(n)));
    const auto k = static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(n)));
    const double d = testref::pair_distance(*ptrs[i], *ptrs[k], {});
    ASSERT_EQ(function_distance(*ptrs[i], *ptrs[k]), d);
    for (double threshold : {std::nextafter(d, 0.0), d, std::nextafter(d, kInf)}) {
      ClusteringConfig cfg;
      cfg.threshold = threshold;
      ASSERT_EQ(cluster_functions(ptrs, cfg), testref::cluster_functions(ptrs, cfg))
          << "trial " << trial << " threshold " << threshold;
    }
  }
}

TEST(ClusteringOracle, MergedClusterFunctionMatchesMapMerge) {
  Rng rng(93);
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 1 + static_cast<int>(rng.below(40));
    std::vector<RateFunction> fns;
    for (int j = 0; j < n; ++j) {
      fns.push_back(template_function(rng, 5, true));
      if (rng.below(4) == 0) fns.back().load_raw(random_raw(rng));
    }
    const auto ptrs = pointers(fns);
    std::vector<ConnectionId> members;
    for (int j = 0; j < n; ++j) {
      if (rng.below(2) == 0) members.push_back(j);
    }
    if (members.empty()) members.push_back(0);
    const std::map<Weight, RawPoint> expected =
        testref::merge_cluster_raw(ptrs, members);
    const RateFunction merged = merge_cluster_function(ptrs, members);
    testref::DenseRateFunction ref;
    ref.load_raw(expected);
    expect_same_function(merged, ref, "merged cluster");
  }
}

// --- FoxOracle -------------------------------------------------------------

TEST(FoxOracle, TournamentMatchesHeapOnRandomInstances) {
  Rng rng(94);
  for (int trial = 0; trial < 400; ++trial) {
    const int n = 1 + static_cast<int>(rng.below(80));
    const Weight domain = 1 + static_cast<Weight>(rng.below(kWeightUnits));
    const bool monotone = rng.below(4) != 0;
    const double step = rng.below(2) == 0 ? 0.25 : 0.0;  // quantized: ties
    std::vector<std::vector<double>> tables(static_cast<std::size_t>(n));
    for (auto& t : tables) {
      double v = rng.below(3) == 0 ? -1.0 : 0.0;
      for (Weight w = 0; w <= domain; ++w) {
        if (monotone) {
          v += step > 0.0 ? step * static_cast<double>(rng.below(2))
                          : rng.uniform(0.0, 0.01);
        } else {
          v = rng.uniform(-1.0, 1.0);
        }
        double x = v;
        switch (rng.below(60)) {
          case 0: x = kNaN; break;
          case 1: x = kInf; break;
          case 2: x = -0.0; break;
          default: break;
        }
        t.push_back(x);
      }
    }
    RapProblem p;
    p.total = static_cast<Weight>(rng.below(static_cast<std::uint64_t>(domain) * 2 + 2));
    for (int j = 0; j < n; ++j) {
      RapVariable v;
      v.min = std::min<Weight>(
          domain, static_cast<Weight>(rng.below(3) == 0 ? rng.below(4) : 0));
      v.max = std::min<Weight>(domain, v.min + static_cast<Weight>(rng.below(
                                               static_cast<std::uint64_t>(domain) + 1)));
      p.vars.push_back(v);
    }
    p.eval = [&tables](int j, Weight w) {
      return tables[static_cast<std::size_t>(j)][static_cast<std::size_t>(w)];
    };
    const RapSolution got = solve_fox(p);
    const RapSolution want = testref::solve_fox_heap(p);
    ASSERT_EQ(got.weights, want.weights) << "trial " << trial;
    ASSERT_EQ(got.feasible, want.feasible) << "trial " << trial;
    ASSERT_TRUE(same(got.objective, want.objective)) << "trial " << trial;
  }
}

}  // namespace
}  // namespace slb
