#include "src/thermal/cooling_profile.h"

#include <gtest/gtest.h>

namespace eas {
namespace {

TEST(CoolingProfileTest, UniformGivesSameParamsEverywhere) {
  ThermalParams p;
  p.resistance = 0.25;
  const CoolingProfile profile = CoolingProfile::Uniform(4, p);
  EXPECT_EQ(profile.num_physical(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(profile.ParamsFor(i).resistance, 0.25);
  }
}

TEST(CoolingProfileTest, PaperProfileHasEightPackages) {
  const CoolingProfile profile = CoolingProfile::PaperXSeries445();
  EXPECT_EQ(profile.num_physical(), 8u);
}

TEST(CoolingProfileTest, PaperProfileHeterogeneity) {
  // Physical 0 and 3 are the poor coolers, 4 mediocre, others good
  // (Table 3: logical 0/8, 3/11 throttle most; 4/12 throttle a little).
  const CoolingProfile profile = CoolingProfile::PaperXSeries445();
  const double r0 = profile.ParamsFor(0).resistance;
  const double r3 = profile.ParamsFor(3).resistance;
  const double r4 = profile.ParamsFor(4).resistance;
  for (std::size_t good : {1u, 2u, 5u, 6u, 7u}) {
    EXPECT_LT(profile.ParamsFor(good).resistance, r4);
  }
  EXPECT_LT(r4, r0);
  EXPECT_LT(r4, r3);
}

TEST(CoolingProfileTest, PaperProfileMaxPowerBands) {
  // At the 38 C limit: poor packages must throttle bitcnts (61 W) and even
  // pushpop (47 W); good packages must sustain bitcnts without throttling.
  const CoolingProfile profile = CoolingProfile::PaperXSeries445();
  for (std::size_t phys = 0; phys < 8; ++phys) {
    const double max_power = profile.ParamsFor(phys).MaxPowerForTemp(38.0);
    if (phys == 0 || phys == 3) {
      EXPECT_LT(max_power, 47.0) << "poor package " << phys;
    } else if (phys == 4) {
      EXPECT_GT(max_power, 47.0);
      EXPECT_LT(max_power, 61.0);
    } else {
      EXPECT_GT(max_power, 61.0) << "good package " << phys;
    }
  }
}

TEST(CoolingProfileTest, PaperProfileSharedTimeConstant) {
  const CoolingProfile profile = CoolingProfile::PaperXSeries445();
  for (std::size_t phys = 0; phys < 8; ++phys) {
    EXPECT_NEAR(profile.ParamsFor(phys).TimeConstant(), 12.0, 1e-9);
  }
}

}  // namespace
}  // namespace eas
