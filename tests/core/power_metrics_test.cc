#include "src/core/power_metrics.h"

#include <gtest/gtest.h>

#include <cmath>

namespace eas {
namespace {

TEST(CpuPowerStateTest, InitialThermalPowerIsSeed) {
  CpuPowerState state(60.0, 12.0, 13.6);
  EXPECT_DOUBLE_EQ(state.thermal_power(), 13.6);
  EXPECT_DOUBLE_EQ(state.max_power(), 60.0);
}

TEST(CpuPowerStateTest, ThermalPowerFollowsConstantLoad) {
  CpuPowerState state(60.0, 12.0, 13.6);
  // 61 W for a long time: thermal power converges to 61 W.
  for (int i = 0; i < 100'000; ++i) {
    state.AccountEnergy(0.061, 0.001);
  }
  EXPECT_NEAR(state.thermal_power(), 61.0, 0.1);
}

TEST(CpuPowerStateTest, TimeConstantMatchesThermalModel) {
  // After exactly tau of constant load, thermal power covers ~63.2% of the
  // step - mirroring the RC model (the calibration of Section 4.3).
  const double tau = 12.0;
  CpuPowerState state(60.0, tau, 0.0);
  const int steps = static_cast<int>(tau / 0.001);
  for (int i = 0; i < steps; ++i) {
    state.AccountEnergy(0.050, 0.001);  // 50 W
  }
  EXPECT_NEAR(state.thermal_power(), 50.0 * (1.0 - std::exp(-1.0)), 0.3);
}

TEST(CpuPowerStateTest, ReactsSlowerThanInstantPower) {
  CpuPowerState state(60.0, 12.0, 13.6);
  // One tick of 61 W barely moves it.
  state.AccountEnergy(0.061, 0.001);
  EXPECT_LT(state.thermal_power(), 14.0);
}

TEST(CpuPowerStateTest, SeedOverrides) {
  CpuPowerState state(60.0, 12.0, 13.6);
  state.SeedThermalPower(40.0);
  EXPECT_DOUBLE_EQ(state.thermal_power(), 40.0);
}

TEST(CpuPowerStateTest, DecaysTowardIdleWhenUnloaded) {
  CpuPowerState state(60.0, 12.0, 61.0);
  for (int i = 0; i < 100'000; ++i) {
    state.AccountEnergy(0.0136, 0.001);  // halted: 13.6 W
  }
  EXPECT_NEAR(state.thermal_power(), 13.6, 0.1);
}

}  // namespace
}  // namespace eas
