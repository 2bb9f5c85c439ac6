// Governor unit suite: the thermal-stepdown budget loop (step down on
// breach, step up only with hysteresis headroom, no flapping inside the
// band), the ondemand utilization rules, and the registry contract.

#include <gtest/gtest.h>

#include <stdexcept>

#include "src/freq/governor_registry.h"
#include "src/freq/governors.h"

namespace eas {
namespace {

GovernorInputs Inputs(Tick now, std::size_t current, double thermal, double budget) {
  GovernorInputs inputs;
  inputs.now = now;
  inputs.current_pstate = current;
  inputs.num_pstates = 5;
  inputs.thermal_power_watts = thermal;
  inputs.budget_watts = budget;
  inputs.hysteresis_watts = 2.0;
  return inputs;
}

TEST(ThermalStepdownGovernorTest, StepsDownOnBudgetBreach) {
  ThermalStepdownGovernor governor(/*update_interval_ticks=*/10);
  EXPECT_EQ(governor.DecidePState(Inputs(0, 0, 45.0, 40.0)), 1u);
}

TEST(ThermalStepdownGovernorTest, StepsUpOnlyWithHysteresisHeadroom) {
  ThermalStepdownGovernor governor(/*update_interval_ticks=*/10);
  // 39 W against a 40 W budget: inside the 2 W hysteresis band, hold.
  EXPECT_EQ(governor.DecidePState(Inputs(0, 2, 39.0, 40.0)), 2u);
  // 37 W: below budget - hysteresis, step up.
  EXPECT_EQ(governor.DecidePState(Inputs(1, 2, 37.0, 40.0)), 1u);
}

TEST(ThermalStepdownGovernorTest, HysteresisBandDoesNotFlap) {
  // Power oscillating inside [budget - hysteresis, budget] must never change
  // the P-state, no matter how long it goes on.
  ThermalStepdownGovernor governor(/*update_interval_ticks=*/1);
  for (Tick t = 0; t < 100; ++t) {
    const double thermal = t % 2 == 0 ? 39.9 : 38.1;
    EXPECT_EQ(governor.DecidePState(Inputs(t, 2, thermal, 40.0)), 2u) << t;
  }
}

TEST(ThermalStepdownGovernorTest, PacesTransitionsByInterval) {
  ThermalStepdownGovernor governor(/*update_interval_ticks=*/10);
  EXPECT_EQ(governor.DecidePState(Inputs(0, 0, 45.0, 40.0)), 1u);
  // Still over budget, but inside the relock interval: hold.
  for (Tick t = 1; t < 10; ++t) {
    EXPECT_EQ(governor.DecidePState(Inputs(t, 1, 45.0, 40.0)), 1u) << t;
  }
  EXPECT_EQ(governor.DecidePState(Inputs(10, 1, 45.0, 40.0)), 2u);
}

TEST(ThermalStepdownGovernorTest, ClampsAtLadderEnds) {
  ThermalStepdownGovernor governor(/*update_interval_ticks=*/1);
  // Deepest state, still over budget: nowhere to go.
  EXPECT_EQ(governor.DecidePState(Inputs(0, 4, 45.0, 40.0)), 4u);
  // P0 with headroom: nowhere to go either.
  EXPECT_EQ(governor.DecidePState(Inputs(1, 0, 10.0, 40.0)), 0u);
}

GovernorInputs UtilInputs(Tick now, std::size_t current, double utilization) {
  GovernorInputs inputs;
  inputs.now = now;
  inputs.current_pstate = current;
  inputs.num_pstates = 5;
  inputs.utilization = utilization;
  return inputs;
}

TEST(OndemandGovernorTest, JumpsToFullSpeedOnHighUtilization) {
  OndemandGovernor governor(/*update_interval_ticks=*/1);
  EXPECT_EQ(governor.DecidePState(UtilInputs(0, 3, 1.0)), 0u);
}

TEST(OndemandGovernorTest, CreepsDownAfterSustainedLowUtilization) {
  OndemandGovernor governor(/*update_interval_ticks=*/1);
  // One low-utilization decision is not enough (kDownHold = 2)...
  EXPECT_EQ(governor.DecidePState(UtilInputs(0, 0, 0.0)), 0u);
  // ...the second steps one state deeper.
  EXPECT_EQ(governor.DecidePState(UtilInputs(1, 0, 0.0)), 1u);
}

TEST(OndemandGovernorTest, MidUtilizationHoldsAndResetsTheDownHold) {
  OndemandGovernor governor(/*update_interval_ticks=*/1);
  EXPECT_EQ(governor.DecidePState(UtilInputs(0, 1, 0.0)), 1u);  // hold 1 of 2
  EXPECT_EQ(governor.DecidePState(UtilInputs(1, 1, 0.5)), 1u);  // resets the hold
  EXPECT_EQ(governor.DecidePState(UtilInputs(2, 1, 0.0)), 1u);  // hold 1 of 2 again
  EXPECT_EQ(governor.DecidePState(UtilInputs(3, 1, 0.0)), 2u);
}

TEST(NoneGovernorTest, AlwaysPinsP0) {
  NoneGovernor governor;
  EXPECT_EQ(governor.DecidePState(Inputs(0, 3, 100.0, 40.0)), 0u);
}

TEST(GovernorRegistryTest, GlobalHasBuiltins) {
  for (const char* name : {"none", "thermal-stepdown", "ondemand"}) {
    EXPECT_TRUE(FrequencyGovernorRegistry::Global().Contains(name)) << name;
    EXPECT_NE(FrequencyGovernorRegistry::Global().Create(name), nullptr) << name;
  }
}

TEST(GovernorRegistryTest, UnknownNameThrowsListingKnown) {
  try {
    FrequencyGovernorRegistry::Global().CreateOrThrow("no-such-governor");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "unknown frequency governor \"no-such-governor\" "
                 "(known: none, ondemand, thermal-stepdown)");
  }
}

TEST(GovernorRegistryTest, RegisterRejectsDuplicates) {
  FrequencyGovernorRegistry registry;
  RegisterBuiltinGovernors(registry);
  EXPECT_FALSE(
      registry.Register("none", [] { return std::make_unique<NoneGovernor>(); }));
  EXPECT_TRUE(registry.Register("custom",
                                [] { return std::make_unique<ThermalStepdownGovernor>(); }));
  EXPECT_TRUE(registry.Contains("custom"));
}

}  // namespace
}  // namespace eas
