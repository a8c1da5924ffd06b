// Tests for LoadBalanceController against synthetic blocking models —
// convergence to true capacities, static vs adaptive behavior, clustered
// solving — without any simulator or sockets involved.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "core/controller.h"

namespace slb {
namespace {

/// A synthetic system: connection j can sustain `capacity[j]` (fractions
/// summing to <= 1). Each period, every connection whose weight exceeds
/// its capacity accrues blocking time proportional to the overload. With
/// `draft_leader_only`, only the most-overloaded connection reports
/// blocking that period — mimicking the paper's drafting phenomenon.
class FakeSystem {
 public:
  FakeSystem(std::vector<double> capacity, bool draft_leader_only)
      : capacity_(std::move(capacity)),
        cumulative_(capacity_.size(), 0),
        draft_leader_only_(draft_leader_only) {}

  void step(const WeightVector& weights, DurationNs period) {
    int worst = -1;
    double worst_overload = 0.0;
    std::vector<double> overload(capacity_.size(), 0.0);
    for (std::size_t j = 0; j < capacity_.size(); ++j) {
      const double share =
          static_cast<double>(weights[j]) / kWeightUnits;
      overload[j] = std::max(0.0, share - capacity_[j]);
      if (overload[j] > worst_overload) {
        worst_overload = overload[j];
        worst = static_cast<int>(j);
      }
    }
    for (std::size_t j = 0; j < capacity_.size(); ++j) {
      if (draft_leader_only_ && static_cast<int>(j) != worst) continue;
      cumulative_[j] += static_cast<DurationNs>(
          overload[j] * 3.0 * static_cast<double>(period));
    }
  }

  const std::vector<DurationNs>& cumulative() const { return cumulative_; }

 private:
  std::vector<double> capacity_;
  std::vector<DurationNs> cumulative_;
  bool draft_leader_only_;
};

WeightVector run_loop(LoadBalanceController& controller, FakeSystem& system,
                      int periods) {
  const DurationNs period = seconds(1);
  for (int i = 0; i < periods; ++i) {
    system.step(controller.weights(), period);
    controller.update((i + 1) * period, system.cumulative());
  }
  return controller.weights();
}

TEST(Controller, StartsWithEvenWeights) {
  LoadBalanceController c(4);
  EXPECT_EQ(c.weights(), even_weights(4));
  EXPECT_EQ(total_weight(c.weights()), kWeightUnits);
}

TEST(Controller, FirstUpdateOnlyBaselines) {
  LoadBalanceController c(2);
  obs::MetricsRegistry registry;
  c.attach_metrics(registry);
  const std::vector<DurationNs> zero{0, 0};
  EXPECT_EQ(c.update(seconds(1), zero), even_weights(2));
  EXPECT_EQ(registry.counter("controller.updates").value(), 0u);
}

TEST(Controller, HoldsEvenSplitWithoutBlocking) {
  LoadBalanceController c(3);
  const std::vector<DurationNs> zero{0, 0, 0};
  for (int i = 1; i <= 10; ++i) c.update(i * seconds(1), zero);
  EXPECT_EQ(c.weights(), even_weights(3));
}

TEST(Controller, WeightsAlwaysSumToTotal) {
  FakeSystem system({0.1, 0.5, 0.4}, /*draft_leader_only=*/false);
  LoadBalanceController c(3);
  const DurationNs period = seconds(1);
  for (int i = 0; i < 50; ++i) {
    system.step(c.weights(), period);
    c.update((i + 1) * period, system.cumulative());
    EXPECT_EQ(total_weight(c.weights()), kWeightUnits);
  }
}

TEST(Controller, ShiftsAwayFromOverloadedConnection) {
  // Connection 0 can only handle 5% of the traffic.
  FakeSystem system({0.05, 0.5, 0.45}, false);
  LoadBalanceController c(3);
  const WeightVector w = run_loop(c, system, 60);
  EXPECT_LT(w[0], 150);
  EXPECT_GT(w[1], 250);
  EXPECT_GT(w[2], 250);
}

TEST(Controller, ConvergesNearTrueCapacities) {
  FakeSystem system({0.2, 0.3, 0.5}, false);
  ControllerConfig cfg;
  cfg.decay_factor = 0.9;
  LoadBalanceController c(3, cfg);
  const WeightVector w = run_loop(c, system, 300);
  // Within ~10 percentage points of the true capacity split.
  EXPECT_NEAR(w[0], 200, 100);
  EXPECT_NEAR(w[1], 300, 100);
  EXPECT_NEAR(w[2], 500, 120);
}

TEST(Controller, ConvergesWithDraftLeaderOnlyData) {
  // Only one connection reports blocking per period (the paper's data
  // paucity); the controller must still find a sane split.
  FakeSystem system({0.1, 0.45, 0.45}, true);
  LoadBalanceController c(3);
  const WeightVector w = run_loop(c, system, 200);
  EXPECT_LT(w[0], 250);
  EXPECT_GT(w[1], 250);
  EXPECT_GT(w[2], 250);
}

TEST(Controller, StaticNeverDecays) {
  ControllerConfig cfg;
  cfg.decay_factor = 1.0;  // LB-static
  FakeSystem system({0.05, 0.95}, false);
  LoadBalanceController c(2, cfg);
  run_loop(c, system, 80);
  const double f_high = c.function(0).value(500);
  // Freeze the system: no more blocking anywhere. Static keeps its belief.
  const std::vector<DurationNs> frozen = system.cumulative();
  for (int i = 0; i < 50; ++i) {
    c.update(seconds(1000 + i), frozen);
  }
  EXPECT_NEAR(c.function(0).value(500), f_high, f_high * 0.5 + 1e-9);
}

TEST(Controller, AdaptiveDecaysAndReexplores) {
  ControllerConfig cfg;
  cfg.decay_factor = 0.9;
  cfg.zero_sample_weight = 0.25;
  FakeSystem loaded({0.05, 0.95}, false);
  LoadBalanceController c(2, cfg);
  run_loop(c, loaded, 80);
  const Weight w0_loaded = c.weights()[0];
  EXPECT_LT(w0_loaded, 200);

  // Load disappears: connection 0 can now handle everything.
  FakeSystem recovered({0.5, 0.5}, false);
  // Seed the recovered system's counters so cumulative keeps rising from
  // where the old one stopped: build a fresh controller-driving loop.
  std::vector<DurationNs> base = loaded.cumulative();
  const DurationNs period = seconds(1);
  for (int i = 0; i < 300; ++i) {
    recovered.step(c.weights(), period);
    std::vector<DurationNs> cum = recovered.cumulative();
    for (std::size_t j = 0; j < cum.size(); ++j) cum[j] += base[j];
    c.update(seconds(100) + (i + 1) * period, cum);
  }
  EXPECT_GT(c.weights()[0], 350);  // climbed back toward even
}

TEST(Controller, SetWeightsOverrides) {
  LoadBalanceController c(2);
  c.set_weights({900, 100});
  EXPECT_EQ(c.weights(), (WeightVector{900, 100}));
}

TEST(Controller, ClusteringEngagesAboveThreshold) {
  ControllerConfig cfg;
  cfg.enable_clustering = true;
  cfg.clustering_min_connections = 8;
  const int n = 12;
  std::vector<double> caps;
  // Two performance classes: 6 weak (2% each), 6 strong (~14.6% each).
  for (int j = 0; j < 6; ++j) caps.push_back(0.02);
  for (int j = 0; j < 6; ++j) caps.push_back(0.8 / 6 + 0.02);
  FakeSystem system(caps, false);
  LoadBalanceController c(n, cfg);
  run_loop(c, system, 120);
  EXPECT_FALSE(c.clusters().empty());
  // All members of a cluster hold identical weights (modulo the leftover
  // distribution, which adds at most 1 unit).
  for (const auto& members : c.clusters()) {
    for (ConnectionId m : members) {
      EXPECT_NEAR(c.weights()[static_cast<std::size_t>(m)],
                  c.weights()[static_cast<std::size_t>(members.front())], 1);
    }
  }
  // Weak connections end up with clearly less weight than strong ones.
  double weak = 0;
  double strong = 0;
  for (int j = 0; j < 6; ++j) weak += c.weights()[static_cast<std::size_t>(j)];
  for (int j = 6; j < 12; ++j) {
    strong += c.weights()[static_cast<std::size_t>(j)];
  }
  EXPECT_LT(weak, strong);
}

TEST(Controller, ClusteringDisengagedBelowThreshold) {
  ControllerConfig cfg;
  cfg.enable_clustering = true;
  cfg.clustering_min_connections = 32;
  FakeSystem system({0.2, 0.8}, false);
  LoadBalanceController c(2, cfg);
  run_loop(c, system, 20);
  EXPECT_TRUE(c.clusters().empty());
}

TEST(Controller, StatusReflectsRates) {
  FakeSystem system({0.05, 0.95}, false);
  LoadBalanceController c(2);
  obs::MetricsRegistry registry;
  c.attach_metrics(registry);
  run_loop(c, system, 5);
  EXPECT_GT(c.raw_rates()[0] + c.smoothed_rates()[0], 0.0);
  EXPECT_GT(registry.counter("controller.updates").value(), 0u);
}

}  // namespace
}  // namespace slb
