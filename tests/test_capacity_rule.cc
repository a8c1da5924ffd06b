// The controller's capacity rule (LB-capacity): weights proportional to each
// channel's service-time capacity, read from its worker's completions and
// busy time (DESIGN.md §11).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "control/region_control.h"
#include "core/controller.h"
#include "core/policies.h"
#include "core/rate_estimator.h"
#include "obs/journal.h"
#include "obs/metrics.h"

namespace slb {
namespace {

/// Feeds a controller periods in which each channel serves `served[j]`
/// tuples at `service[j]` ns apiece, with no blocking, read through a
/// ServiceMeter as RegionControlLoop reads them.
class ServiceDriver {
 public:
  explicit ServiceDriver(LoadBalanceController* c)
      : c_(c),
        meter_(c->connections()),
        blocked_(static_cast<std::size_t>(c->connections()), 0),
        completed_(blocked_.size(), 0),
        busy_(blocked_.size(), 0) {
    meter_.ingest(completed_, busy_);  // baseline
    c_->update(now_, blocked_, meter_.fresh());
  }

  const WeightVector& step(const std::vector<std::uint64_t>& served,
                           const std::vector<DurationNs>& service) {
    now_ += millis(100);
    for (std::size_t j = 0; j < blocked_.size(); ++j) {
      completed_[j] += served[j];
      busy_[j] += static_cast<DurationNs>(served[j]) * service[j];
    }
    meter_.ingest(completed_, busy_);
    return c_->update(now_, blocked_, meter_.fresh());
  }

 private:
  LoadBalanceController* c_;
  ServiceMeter meter_;
  TimeNs now_ = 0;
  std::vector<DurationNs> blocked_;
  std::vector<std::uint64_t> completed_;
  std::vector<DurationNs> busy_;
};

TEST(ServiceMeter, DifferencesCumulativeCounters) {
  ServiceMeter m(2);
  const std::vector<std::uint64_t> c0{10, 0};
  const std::vector<DurationNs> b0{1000, 0};
  m.ingest(c0, b0);
  EXPECT_FALSE(m.ready());
  const std::vector<std::uint64_t> c1{30, 0};
  const std::vector<DurationNs> b1{1000 + 20 * micros(200), 0};
  m.ingest(c1, b1);
  ASSERT_TRUE(m.ready());
  EXPECT_EQ(m.served(0), 20u);
  EXPECT_DOUBLE_EQ(m.capacity(0), 5000.0);
  EXPECT_EQ(m.served(1), 0u);
  EXPECT_EQ(m.capacity(1), 0.0);
}

TEST(ServiceMeter, AReadingAccumulatesAcrossLightPeriods) {
  ServiceMeter m(1);
  std::vector<std::uint64_t> completed{0};
  std::vector<DurationNs> busy{0};
  m.ingest(completed, busy);
  // 4 tuples a period at 1 ms apiece: no reading until 10 have been
  // served, then one over all 12.
  for (int p = 0; p < 3; ++p) {
    completed[0] += 4;
    busy[0] += 4 * millis(1);
    m.ingest(completed, busy);
    EXPECT_EQ(m.served(0), 4u);
    if (p < 2) {
      EXPECT_EQ(m.fresh()[0], -1.0) << p;
      EXPECT_EQ(m.capacity(0), 0.0) << p;
    }
  }
  EXPECT_DOUBLE_EQ(m.fresh()[0], 1000.0);
  EXPECT_DOUBLE_EQ(m.capacity(0), 1000.0);
  // The next period starts a new count; the reading is held meanwhile.
  completed[0] += 1;
  busy[0] += millis(2);
  m.ingest(completed, busy);
  EXPECT_EQ(m.fresh()[0], -1.0);
  EXPECT_DOUBLE_EQ(m.capacity(0), 1000.0);
}

TEST(ServiceMeter, RestartDropsThePartialCountAndKeepsTheReading) {
  ServiceMeter m(1);
  std::vector<std::uint64_t> completed{0};
  std::vector<DurationNs> busy{0};
  m.ingest(completed, busy);
  completed[0] += 20;
  busy[0] += 20 * millis(1);
  m.ingest(completed, busy);
  ASSERT_DOUBLE_EQ(m.capacity(0), 1000.0);
  // 6 slow tuples, then the worker is replaced: they do not count toward
  // the new worker's reading.
  completed[0] += 6;
  busy[0] += 6 * millis(10);
  m.ingest(completed, busy);
  m.restart(0);
  EXPECT_DOUBLE_EQ(m.capacity(0), 1000.0);
  completed[0] += 6;
  busy[0] += 6 * millis(4);
  m.ingest(completed, busy);
  EXPECT_EQ(m.fresh()[0], -1.0);
  completed[0] += 4;
  busy[0] += 4 * millis(4);
  m.ingest(completed, busy);
  EXPECT_DOUBLE_EQ(m.fresh()[0], 250.0);
  EXPECT_DOUBLE_EQ(m.capacity(0), 250.0);
}

TEST(ServiceMeter, ACounterThatGoesBackwardsReadsAsNothingServed) {
  ServiceMeter m(2);
  m.ingest(std::vector<std::uint64_t>{100, 100},
           std::vector<DurationNs>{millis(100), millis(100)});
  // Channel 0's counters went backwards (a replaced worker's histogram);
  // channel 1's busy time did.
  m.ingest(std::vector<std::uint64_t>{50, 150},
           std::vector<DurationNs>{millis(50), millis(90)});
  EXPECT_EQ(m.served(0), 0u);
  EXPECT_EQ(m.served(1), 0u);
  EXPECT_EQ(m.fresh()[0], -1.0);
  EXPECT_EQ(m.fresh()[1], -1.0);
  // The next period differences from the new values.
  m.ingest(std::vector<std::uint64_t>{70, 170},
           std::vector<DurationNs>{millis(70), millis(110)});
  EXPECT_EQ(m.served(0), 20u);
  EXPECT_DOUBLE_EQ(m.capacity(0), 1000.0);
  EXPECT_DOUBLE_EQ(m.capacity(1), 1000.0);
}

TEST(CapacityGauge, PublishesTheReadingTheControllerAllocatesFrom) {
  // A region whose channel 1 slows 10x while being fed a trickle, 3
  // tuples a period: the gauge holds the old reading until 10 tuples have
  // accumulated, and after every tick it is the controller's estimate.
  // Channel 0 serves steadily, so no hop raises channel 1's estimate.
  LoadBalancingPolicy policy(2);
  obs::MetricsRegistry metrics;
  control::RegionControlLoop loop(2, &policy, {}, /*source_interval=*/0, {},
                                  metrics);
  const obs::Gauge& gauge = metrics.gauge("region.capacity_tps.1");
  const std::vector<DurationNs> blocked{0, 0};
  std::vector<std::uint64_t> completed{0, 0};
  std::vector<DurationNs> busy{0, 0};
  const auto& controller = policy.controller();
  for (int p = 0; p < 12; ++p) {
    const bool slow = p >= 4;
    completed[0] += 500;
    busy[0] += 500 * micros(200);
    completed[1] += slow ? 3 : 500;
    busy[1] += slow ? 3 * micros(2000) : 500 * micros(200);
    loop.tick((p + 1) * millis(100), millis(100), blocked,
              {completed, busy});
    EXPECT_EQ(gauge.value(), std::llround(controller.capacity(1))) << p;
    if (p >= 1 && p < 7) {
      EXPECT_EQ(gauge.value(), 5000) << p;
    }
  }
  // Read at the 4th slow period (12 tuples), and again at the 8th.
  EXPECT_EQ(gauge.value(), 500);
}

TEST(CapacityRule, WeightsFollowMeasuredCapacity) {
  LoadBalanceController c(2);
  ServiceDriver d(&c);
  const WeightVector& w = d.step({50, 500}, {micros(2000), micros(200)});
  EXPECT_EQ(w, (WeightVector{91, 909}));
  EXPECT_DOUBLE_EQ(c.capacity(0), 500.0);
  EXPECT_DOUBLE_EQ(c.capacity(1), 5000.0);
}

TEST(CapacityRule, FewTuplesAccumulateUntilTheyMeasure) {
  LoadBalanceController c(2);
  ServiceDriver d(&c);
  d.step({50, 500}, {micros(2000), micros(200)});
  // Channel 0 slows 10x but serves only 6 tuples a period: no reading
  // until it has served 10.
  d.step({6, 500}, {micros(20000), micros(200)});
  EXPECT_DOUBLE_EQ(c.capacity(0), 500.0);
  d.step({6, 500}, {micros(20000), micros(200)});
  EXPECT_DOUBLE_EQ(c.capacity(0), 50.0);
}

TEST(CapacityRule, AHopRaisesTheStaleEstimate) {
  LoadBalanceController c(2);
  ServiceDriver d(&c);
  d.step({50, 500}, {micros(2000), micros(200)});
  // The load hops: channel 1 now serves 10x slower, and channel 0 (fed
  // one tuple in eleven) serves too few to be measured. Its stale 500 is
  // raised to the largest estimate, so it is fed at once.
  const WeightVector& w = d.step({4, 50}, {micros(200), micros(2000)});
  EXPECT_DOUBLE_EQ(c.capacity(0), 5000.0);
  EXPECT_DOUBLE_EQ(c.capacity(1), 500.0);
  EXPECT_EQ(w, (WeightVector{909, 91}));
}

TEST(CapacityRule, EveryLiveChannelKeepsAUnit) {
  LoadBalanceController c(3);
  ServiceDriver d(&c);
  const WeightVector& w =
      d.step({10, 5000, 5000}, {seconds(1) / 10, 1000, 1000});
  EXPECT_EQ(w[0], 1);
  EXPECT_EQ(total_weight(w), kWeightUnits);
}

TEST(CapacityRule, ReadmittedChannelProbesUntilMeasured) {
  LoadBalanceController c(2);
  ServiceDriver d(&c);
  d.step({500, 500}, {micros(200), micros(200)});
  c.mark_down(0);
  EXPECT_EQ(c.weights(), (WeightVector{0, 1000}));
  c.mark_up(0);
  EXPECT_EQ(d.step({0, 500}, {micros(200), micros(200)})[0], 8);
  EXPECT_EQ(d.step({4, 500}, {micros(200), micros(200)})[0], 16);
  // Measured at last: back to its capacity share.
  EXPECT_EQ(d.step({8, 500}, {micros(200), micros(200)})[0], 500);
}

TEST(CapacityRule, WithoutCompletionsTheBlockingRuleDecides) {
  // LB-capacity fed samples without readings, or only the blocking
  // counters (as a wrapper forwarding on_sample(now, blocked) feeds it),
  // journals what the paper's type journals.
  LoadBalancingPolicy sampled(2);
  LoadBalancingPolicy forwarded(2);
  BlockingRatePolicy paper(2);
  obs::DecisionJournal a;
  obs::DecisionJournal b;
  obs::DecisionJournal c;
  sampled.set_journal(&a);
  forwarded.set_journal(&b);
  paper.set_journal(&c);
  std::vector<DurationNs> cumulative{0, 0};
  for (int p = 0; p < 20; ++p) {
    cumulative[0] += millis(90);
    cumulative[1] += millis(1);
    const TimeNs now = p * millis(100);
    sampled.on_sample(PolicySample{now, cumulative, {}, {}});
    forwarded.on_sample(now, cumulative);
    paper.on_sample(now, cumulative);
  }
  EXPECT_GT(a.entries(), 20u);
  EXPECT_EQ(a.digest(), c.digest());
  EXPECT_EQ(b.digest(), c.digest());
}

TEST(UnmeasuredRegion, NoReadingKeepsTheEvenSplitAndSolvesNothing) {
  // Until a live channel has a capacity reading, every sample's readings
  // are -1: the even split stands, so each channel is fed enough to be
  // measured, and no capacity solve is journaled.
  LoadBalanceController c(3);
  obs::DecisionJournal journal;
  c.set_journal(&journal);
  const WeightVector even = c.weights();
  const std::vector<DurationNs> blocked(3, 0);
  const std::vector<double> unread(3, -1.0);
  for (int p = 0; p < 5; ++p) {
    EXPECT_EQ(c.update(p * millis(100), blocked, unread), even)
        << "period " << p;
  }
  ASSERT_GT(journal.entries(), 0u);  // the periods were observed
  for (const std::string& line : journal.lines()) {
    EXPECT_EQ(line.find("\"capacity\""), std::string::npos) << line;
  }
}

}  // namespace
}  // namespace slb
