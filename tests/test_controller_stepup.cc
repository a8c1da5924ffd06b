// Tests for the flat solve's per-update weight bounds (DESIGN.md, "Step
// bounds"): a live connection may drop to 0 in one update, and may rise by
// at most max(8, w).
#include <gtest/gtest.h>

#include <vector>

#include "core/controller.h"

namespace slb {
namespace {

/// Feeds the controller a synthetic period where connection `blocked_j`
/// reports the given blocking rate and everyone else reports zero.
class ControllerDriver {
 public:
  explicit ControllerDriver(LoadBalanceController* c)
      : controller_(c),
        cumulative_(static_cast<std::size_t>(c->connections()), 0) {}

  void step(int blocked_j, double rate) {
    now_ += seconds(1);
    if (blocked_j >= 0) {
      cumulative_[static_cast<std::size_t>(blocked_j)] +=
          static_cast<DurationNs>(rate * static_cast<double>(seconds(1)));
    }
    controller_->update(now_, cumulative_);
  }

 private:
  LoadBalanceController* controller_;
  std::vector<DurationNs> cumulative_;
  TimeNs now_ = 0;
};

TEST(GeometricStepUp, CapsPerUpdateGrowthFromZero) {
  ControllerConfig cfg;
  cfg.zero_sample_weight = 0.5;
  LoadBalanceController c(2, cfg);
  ControllerDriver driver(&c);

  // Connection 0 blocks hard at its even share: it is dropped to 0 (down
  // moves are unbounded)...
  driver.step(0, 0.9);
  driver.step(0, 0.9);
  EXPECT_EQ(c.weights()[0], 0);

  // ...and once the other connection starts blocking under the full
  // load, connection 0's climb back is bounded by max(floor, 2w) per
  // update: 8, 16, 32, ...
  Weight prev = 0;
  for (int i = 0; i < 5; ++i) {
    driver.step(1, 0.4);
    const Weight now = c.weights()[0];
    EXPECT_LE(now,
              std::max(LoadBalanceController::kGeometricStepFloor, prev) +
                  prev);
    prev = now;
  }
  EXPECT_GT(c.weights()[0], 0);  // it is climbing
}

TEST(GeometricStepUp, StillReachesEvenShareQuickly) {
  ControllerConfig cfg;
  cfg.zero_sample_weight = 0.5;
  LoadBalanceController c(2, cfg);
  ControllerDriver driver(&c);
  driver.step(0, 0.9);
  driver.step(0, 0.9);
  ASSERT_EQ(c.weights()[0], 0);
  // The survivor now blocks under the full load; doubling brings
  // connection 0 back to a large share within ~log2(R) updates.
  for (int i = 0; i < 12; ++i) driver.step(1, 0.5);
  EXPECT_GT(c.weights()[0], 300);
}

TEST(GeometricStepUp, DownwardMovesRemainUnbounded) {
  LoadBalanceController c(4);
  ControllerDriver driver(&c);
  driver.step(0, 0.0);  // baseline-ready
  driver.step(0, 0.95);
  // From the even 250 straight down, no staircase.
  EXPECT_LE(c.weights()[0], 10);
}

}  // namespace
}  // namespace slb
