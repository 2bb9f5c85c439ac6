#include "src/task/energy_profile.h"

#include <gtest/gtest.h>

namespace eas {
namespace {

TEST(EnergyProfileTest, SeedSetsPower) {
  EnergyProfile profile;
  profile.Seed(47.0);
  EXPECT_DOUBLE_EQ(profile.power(), 47.0);
  EXPECT_TRUE(profile.has_samples());
}

TEST(EnergyProfileTest, FullTimeslicePowerSample) {
  EnergyProfile profile(0.3);
  // 6.1 J over 100 ms = 61 W; first sample initializes.
  profile.AddPeriod(6.1, 100);
  EXPECT_NEAR(profile.power(), 61.0, 1e-9);
}

TEST(EnergyProfileTest, ConvergesToSteadyPower) {
  EnergyProfile profile(0.3);
  for (int i = 0; i < 50; ++i) {
    profile.AddPeriod(4.7, 100);  // 47 W
  }
  EXPECT_NEAR(profile.power(), 47.0, 0.01);
}

TEST(EnergyProfileTest, SpikeDoesNotDominate) {
  EnergyProfile profile(0.3);
  profile.Seed(40.0);
  profile.AddPeriod(8.0, 100);  // one 80 W timeslice
  EXPECT_LT(profile.power(), 55.0);
  EXPECT_GT(profile.power(), 40.0);
}

TEST(EnergyProfileTest, PersistentChangeShowsUp) {
  EnergyProfile profile(0.3);
  profile.Seed(40.0);
  for (int i = 0; i < 15; ++i) {
    profile.AddPeriod(8.0, 100);
  }
  EXPECT_GT(profile.power(), 75.0);
}

TEST(EnergyProfileTest, PartialPeriodWeightsLess) {
  // A 10 ms partial slice must move the profile less than a 100 ms slice of
  // the same power - the variable-period weight at work.
  EnergyProfile partial(0.3);
  partial.Seed(40.0);
  partial.AddPeriod(0.8, 10);  // 80 W over 10 ms

  EnergyProfile full(0.3);
  full.Seed(40.0);
  full.AddPeriod(8.0, 100);  // 80 W over 100 ms

  EXPECT_LT(partial.power(), full.power());
  EXPECT_GT(partial.power(), 40.0);
}

TEST(EnergyProfileTest, SplitPeriodEqualsWholePeriod) {
  // Ten 10 ms samples at constant power must equal one 100 ms sample: the
  // defining consistency property of the paper's extension (Section 3.3).
  EnergyProfile split(0.3);
  split.Seed(40.0);
  for (int i = 0; i < 10; ++i) {
    split.AddPeriod(0.8, 10);
  }
  EnergyProfile whole(0.3);
  whole.Seed(40.0);
  whole.AddPeriod(8.0, 100);
  EXPECT_NEAR(split.power(), whole.power(), 1e-9);
}

TEST(EnergyProfileTest, ZeroTickPeriodIgnored) {
  EnergyProfile profile;
  profile.Seed(40.0);
  profile.AddPeriod(1.0, 0);
  EXPECT_DOUBLE_EQ(profile.power(), 40.0);
}

}  // namespace
}  // namespace eas
