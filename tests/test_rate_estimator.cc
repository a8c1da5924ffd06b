// Tests for BlockingRateEstimator: cumulative counters -> smoothed rates.
#include <gtest/gtest.h>

#include <vector>

#include "core/rate_estimator.h"
#include "util/time.h"

namespace slb {
namespace {

TEST(RateEstimator, FirstIngestOnlyBaselines) {
  BlockingRateEstimator est(2, 1.0);
  const std::vector<DurationNs> c{100, 200};
  est.ingest(seconds(1), c);
  EXPECT_FALSE(est.ready());
}

TEST(RateEstimator, ComputesRateFromDeltas) {
  BlockingRateEstimator est(2, 1.0);
  est.ingest(0, std::vector<DurationNs>{0, 0});
  // Over one second: connection 0 blocked 0.5 s, connection 1 blocked 0.
  est.ingest(seconds(1),
             std::vector<DurationNs>{seconds(1) / 2, 0});
  ASSERT_TRUE(est.ready());
  EXPECT_NEAR(est.smoothed_rates()[0], 0.5, 1e-12);
  EXPECT_NEAR(est.smoothed_rates()[1], 0.0, 1e-12);
}

TEST(RateEstimator, SmoothsAcrossPeriods) {
  BlockingRateEstimator est(1, 0.5);
  est.ingest(0, std::vector<DurationNs>{0});
  est.ingest(seconds(1), std::vector<DurationNs>{seconds(1)});  // rate 1.0
  est.ingest(seconds(2), std::vector<DurationNs>{seconds(1)});  // rate 0.0
  EXPECT_NEAR(est.smoothed_rates()[0], 0.5, 1e-12);
  EXPECT_NEAR(est.raw_rates()[0], 0.0, 1e-12);
}

TEST(RateEstimator, CounterResetTreatedAsNewBaseline) {
  BlockingRateEstimator est(1, 1.0);
  est.ingest(0, std::vector<DurationNs>{seconds(5)});
  // The transport layer reset its counter; the new cumulative value is
  // *smaller*. The estimator must not produce a negative rate.
  est.ingest(seconds(1), std::vector<DurationNs>{millis(100)});
  ASSERT_TRUE(est.ready());
  EXPECT_GE(est.smoothed_rates()[0], 0.0);
  EXPECT_NEAR(est.smoothed_rates()[0], 0.1, 1e-9);
}

TEST(RateEstimator, IgnoresNonAdvancingTime) {
  BlockingRateEstimator est(1, 1.0);
  est.ingest(seconds(1), std::vector<DurationNs>{0});
  est.ingest(seconds(1), std::vector<DurationNs>{seconds(1)});  // same time
  EXPECT_FALSE(est.ready());
  est.ingest(seconds(2), std::vector<DurationNs>{seconds(1)});
  EXPECT_TRUE(est.ready());
  EXPECT_NEAR(est.smoothed_rates()[0], 1.0, 1e-12);
}

TEST(RateEstimator, ManyConnectionsIndependent) {
  const int n = 16;
  BlockingRateEstimator est(n, 1.0);
  std::vector<DurationNs> c(n, 0);
  est.ingest(0, c);
  for (int j = 0; j < n; ++j) c[static_cast<std::size_t>(j)] = j * millis(10);
  est.ingest(seconds(1), c);
  for (int j = 0; j < n; ++j) {
    EXPECT_NEAR(est.smoothed_rates()[static_cast<std::size_t>(j)], 0.01 * j,
                1e-12)
        << "connection " << j;
  }
}

}  // namespace
}  // namespace slb
