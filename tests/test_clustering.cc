// Tests for agglomerative clustering of connection functions and the
// cluster-aggregate function.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/clustering.h"
#include "util/rng.h"

namespace slb {
namespace {

RateFunction knee_fn(Weight knee, double slope, double jitter = 0.0,
                     std::uint64_t seed = 0) {
  Rng rng(seed + 1);
  RateFunction f;
  for (Weight w = 20; w <= kWeightUnits; w += 20) {
    double rate = w <= knee ? 0.0 : slope * (w - knee);
    if (jitter > 0.0 && rate > 0.0) rate *= rng.uniform(1 - jitter, 1 + jitter);
    f.observe(w, rate);
  }
  return f;
}

std::vector<const RateFunction*> ptrs(const std::vector<RateFunction>& fns) {
  std::vector<const RateFunction*> out;
  for (const auto& f : fns) out.push_back(&f);
  return out;
}

TEST(Clustering, SingleFunctionSingleCluster) {
  std::vector<RateFunction> fns;
  fns.push_back(knee_fn(300, 0.001));
  const Clusters c = cluster_functions(ptrs(fns), kClusterThreshold);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0], (std::vector<ConnectionId>{0}));
}

TEST(Clustering, IdenticalFunctionsMerge) {
  std::vector<RateFunction> fns;
  for (int i = 0; i < 5; ++i) fns.push_back(knee_fn(300, 0.001));
  const Clusters c = cluster_functions(ptrs(fns), kClusterThreshold);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0].size(), 5u);
}

TEST(Clustering, ThresholdZeroKeepsDistinctApart) {
  std::vector<RateFunction> fns;
  fns.push_back(knee_fn(100, 0.001));
  fns.push_back(knee_fn(900, 0.001));
  const Clusters c = cluster_functions(ptrs(fns), 0.0);
  EXPECT_EQ(c.size(), 2u);
}

TEST(Clustering, HugeThresholdMergesEverything) {
  std::vector<RateFunction> fns;
  fns.push_back(knee_fn(100, 0.01));
  fns.push_back(knee_fn(500, 0.001));
  fns.push_back(knee_fn(900, 0.0001));
  const Clusters c = cluster_functions(ptrs(fns), 1e9);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0].size(), 3u);
}

TEST(Clustering, RecoversThreePerformanceClasses) {
  // The Figure 12 scenario in miniature: three load classes with some
  // observation jitter must cluster into groups that never mix classes.
  std::vector<RateFunction> fns;
  std::vector<int> truth;
  for (int i = 0; i < 6; ++i) {
    fns.push_back(knee_fn(20, 0.01, 0.1, static_cast<std::uint64_t>(i)));
    truth.push_back(0);  // heavily loaded: blocks almost immediately
  }
  for (int i = 0; i < 6; ++i) {
    fns.push_back(knee_fn(200, 0.001, 0.1, static_cast<std::uint64_t>(10 + i)));
    truth.push_back(1);
  }
  for (int i = 0; i < 6; ++i) {
    fns.push_back(knee_fn(800, 0.0001, 0.1, static_cast<std::uint64_t>(20 + i)));
    truth.push_back(2);
  }
  const Clusters c = cluster_functions(ptrs(fns), kClusterThreshold);
  // Purity: every cluster contains members of exactly one class.
  for (const auto& members : c) {
    for (ConnectionId m : members) {
      EXPECT_EQ(truth[static_cast<std::size_t>(m)],
                truth[static_cast<std::size_t>(members.front())]);
    }
  }
  // And the classes must not be glued together into fewer than 3 clusters.
  EXPECT_GE(c.size(), 3u);
}

TEST(Clustering, EveryConnectionInExactlyOneCluster) {
  std::vector<RateFunction> fns;
  for (int i = 0; i < 12; ++i) {
    fns.push_back(knee_fn(static_cast<Weight>(50 + 80 * i), 0.001));
  }
  const Clusters c = cluster_functions(ptrs(fns), kClusterThreshold);
  std::vector<int> seen(12, 0);
  for (const auto& members : c) {
    for (ConnectionId m : members) ++seen[static_cast<std::size_t>(m)];
  }
  for (int s : seen) EXPECT_EQ(s, 1);
}

TEST(Clustering, CanonicalizeSortsMembersAndClusters) {
  Clusters c{{5, 3}, {2, 0, 4}};
  canonicalize(c);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c[0], (std::vector<ConnectionId>{0, 2, 4}));
  EXPECT_EQ(c[1], (std::vector<ConnectionId>{3, 5}));
}

TEST(MergeClusterFunction, AveragesMemberEvidence) {
  std::vector<RateFunction> fns(2);
  fns[0].observe(500, 0.2);
  fns[1].observe(500, 0.4);
  const RateFunction merged =
      merge_cluster_function(ptrs(fns), {0, 1});
  EXPECT_NEAR(merged.value(500), 0.3, 1e-9);
}

TEST(MergeClusterFunction, WeightsEvidenceBySampleWeight) {
  std::vector<RateFunction> fns(2);
  fns[0].observe(500, 0.0, 3.0);  // three periods of "no blocking"
  fns[1].observe(500, 0.4, 1.0);
  const RateFunction merged = merge_cluster_function(ptrs(fns), {0, 1});
  EXPECT_NEAR(merged.value(500), 0.1, 1e-9);
}

TEST(MergeClusterFunction, UnionsDistinctWeights) {
  std::vector<RateFunction> fns(2);
  fns[0].observe(200, 0.1);
  fns[1].observe(800, 0.7);
  const RateFunction merged = merge_cluster_function(ptrs(fns), {0, 1});
  EXPECT_EQ(merged.observed_points(), 2);
  EXPECT_NEAR(merged.value(200), 0.1, 1e-9);
  EXPECT_NEAR(merged.value(800), 0.7, 1e-9);
}

TEST(MergeClusterFunction, SubsetOfMembersOnly) {
  std::vector<RateFunction> fns(3);
  fns[0].observe(100, 0.5);
  fns[1].observe(100, 0.1);
  fns[2].observe(100, 0.9);
  const RateFunction merged = merge_cluster_function(ptrs(fns), {0, 1});
  EXPECT_NEAR(merged.value(100), 0.3, 1e-9);  // 2 excluded
}

}  // namespace
}  // namespace slb
