#include "src/thermal/throttle_controller.h"

#include <gtest/gtest.h>

namespace eas {
namespace {

TEST(ThrottleTest, StartsUnthrottled) {
  ThrottleController t(0.5);
  EXPECT_FALSE(t.throttled());
}

TEST(ThrottleTest, EngagesAboveLimit) {
  ThrottleController t(0.5);
  EXPECT_FALSE(t.ShouldThrottle(39.9, 40.0));
  EXPECT_TRUE(t.ShouldThrottle(40.1, 40.0));
  EXPECT_TRUE(t.throttled());
}

TEST(ThrottleTest, HysteresisHoldsUntilBelowMargin) {
  ThrottleController t(1.0);
  EXPECT_TRUE(t.ShouldThrottle(41.0, 40.0));
  // Still above limit - hysteresis.
  EXPECT_TRUE(t.ShouldThrottle(39.5, 40.0));
  // Now below limit - hysteresis.
  EXPECT_FALSE(t.ShouldThrottle(38.9, 40.0));
}

TEST(ThrottleTest, ReengagesAfterRecovery) {
  ThrottleController t(0.5);
  EXPECT_TRUE(t.ShouldThrottle(41.0, 40.0));
  EXPECT_FALSE(t.ShouldThrottle(39.0, 40.0));
  EXPECT_TRUE(t.ShouldThrottle(40.5, 40.0));
}

TEST(ThrottleTest, AccountsThrottledFraction) {
  ThrottleController t(0.5);
  for (int i = 0; i < 30; ++i) {
    t.AccountTick(true);
  }
  for (int i = 0; i < 70; ++i) {
    t.AccountTick(false);
  }
  EXPECT_DOUBLE_EQ(t.ThrottledFraction(), 0.3);
}

TEST(ThrottleTest, FractionZeroWithoutTicks) {
  ThrottleController t(0.5);
  EXPECT_DOUBLE_EQ(t.ThrottledFraction(), 0.0);
}

TEST(ThrottleTest, DutyCycleEnforcesAverage) {
  // A synthetic loop: power is 61 W when running, 13.6 W when halted, and the
  // "thermal power" is a slow average of what we ran. The duty cycle chosen
  // by the controller must keep the average near the 40 W limit.
  ThrottleController t(0.5);
  double thermal = 13.6;
  double consumed = 0.0;
  const int ticks = 200'000;
  const double alpha = 0.0005;  // slow metric
  for (int i = 0; i < ticks; ++i) {
    const bool halt = t.ShouldThrottle(thermal, 40.0);
    const double power = halt ? 13.6 : 61.0;
    thermal = alpha * power + (1.0 - alpha) * thermal;
    consumed += power;
    t.AccountTick(halt);
  }
  EXPECT_NEAR(consumed / ticks, 40.0, 1.0);
  // Duty cycle ~ (61-40)/(61-13.6) = 44%.
  EXPECT_NEAR(t.ThrottledFraction(), 0.44, 0.05);
}

}  // namespace
}  // namespace eas
