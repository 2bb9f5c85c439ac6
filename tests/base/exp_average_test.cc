#include "src/base/exp_average.h"

#include <gtest/gtest.h>

#include <cmath>

namespace eas {
namespace {

TEST(ExpAverageTest, FirstSampleInitializes) {
  ExpAverage avg(0.3, 1.0);
  EXPECT_FALSE(avg.has_samples());
  avg.AddRateSample(10.0, 1.0);
  EXPECT_TRUE(avg.has_samples());
  EXPECT_DOUBLE_EQ(avg.value(), 10.0);
}

TEST(ExpAverageTest, StandardPeriodMatchesClassicFormula) {
  // For period == standard_period the update must be exactly
  // p*x + (1-p)*old (paper Equation 2).
  ExpAverage avg(0.25, 1.0);
  avg.Reset(8.0);
  avg.AddRateSample(16.0, 1.0);
  EXPECT_NEAR(avg.value(), 0.25 * 16.0 + 0.75 * 8.0, 1e-12);
}

TEST(ExpAverageTest, ConvergesToConstantInput) {
  ExpAverage avg(0.3, 1.0);
  avg.Reset(0.0);
  for (int i = 0; i < 100; ++i) {
    avg.AddRateSample(42.0, 1.0);
  }
  EXPECT_NEAR(avg.value(), 42.0, 1e-6);
}

TEST(ExpAverageTest, ShortPeriodsWeightPastMore) {
  // Two short samples covering one standard period must equal one
  // standard-period sample of the same rate: the variable-period extension's
  // defining property.
  ExpAverage two_halves(0.5, 1.0);
  two_halves.Reset(100.0);
  two_halves.AddRateSample(0.0, 0.5);
  two_halves.AddRateSample(0.0, 0.5);

  ExpAverage one_full(0.5, 1.0);
  one_full.Reset(100.0);
  one_full.AddRateSample(0.0, 1.0);

  EXPECT_NEAR(two_halves.value(), one_full.value(), 1e-9);
}

TEST(ExpAverageTest, LongPeriodWeightsPastLess) {
  ExpAverage avg_long(0.5, 1.0);
  avg_long.Reset(100.0);
  avg_long.AddRateSample(0.0, 3.0);

  ExpAverage avg_short(0.5, 1.0);
  avg_short.Reset(100.0);
  avg_short.AddRateSample(0.0, 1.0);

  // A 3-standard-period sample decays the past as much as three samples.
  EXPECT_LT(avg_long.value(), avg_short.value());
  EXPECT_NEAR(avg_long.value(), 100.0 * std::pow(0.5, 3.0), 1e-9);
}

TEST(ExpAverageTest, TimeConstantStepResponse) {
  // Feeding a step for exactly tau must cover ~63.2% of the step.
  const double tau = 10.0;
  const double dt = 0.01;
  ExpAverage avg = ExpAverage::WithTimeConstant(tau, dt);
  avg.Reset(0.0);
  const int steps = static_cast<int>(tau / dt);
  for (int i = 0; i < steps; ++i) {
    avg.AddRateSample(1.0, dt);
  }
  EXPECT_NEAR(avg.value(), 1.0 - std::exp(-1.0), 0.01);
}

TEST(ExpAverageTest, TimeConstantIndependentOfStepSize) {
  const double tau = 5.0;
  ExpAverage fine = ExpAverage::WithTimeConstant(tau, 0.001);
  ExpAverage coarse = ExpAverage::WithTimeConstant(tau, 0.1);
  fine.Reset(0.0);
  coarse.Reset(0.0);
  for (int i = 0; i < 5000; ++i) {
    fine.AddRateSample(1.0, 0.001);
  }
  for (int i = 0; i < 50; ++i) {
    coarse.AddRateSample(1.0, 0.1);
  }
  EXPECT_NEAR(fine.value(), coarse.value(), 0.01);
}

TEST(ExpAverageTest, ResetForcesValue) {
  ExpAverage avg(0.3, 1.0);
  avg.AddRateSample(5.0, 1.0);
  avg.Reset(99.0);
  EXPECT_DOUBLE_EQ(avg.value(), 99.0);
}

TEST(ExpAverageTest, SpikeBarelyMovesAverage) {
  // The paper's motivation: a momentary spike must not change the profile
  // much, while a persistent change shows up after a few samples.
  ExpAverage avg(0.3, 1.0);
  avg.Reset(40.0);
  avg.AddRateSample(80.0, 1.0);  // one-sample spike
  EXPECT_LT(avg.value(), 55.0);
  for (int i = 0; i < 10; ++i) {
    avg.AddRateSample(80.0, 1.0);  // persistent change
  }
  EXPECT_GT(avg.value(), 75.0);
}

}  // namespace
}  // namespace eas
