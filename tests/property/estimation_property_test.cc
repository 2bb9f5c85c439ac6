// Property suite: the estimation pipeline across meter noise levels and
// random workload mixes.

#include <gtest/gtest.h>

#include "src/counters/calibration.h"
#include "src/counters/energy_estimator.h"
#include "src/task/energy_profile.h"

namespace eas {
namespace {

// The default calibration battery against a meter with `noise` relative
// error.
CalibrationResult CalibrateWithMeterNoise(const EnergyModel& truth, std::uint64_t seed,
                                          double noise) {
  Calibrator calibrator(truth);
  PowerMeter meter(seed ^ 0x5eedu, noise);
  Rng rng(seed);
  calibrator.RunDefaultBattery(meter, rng);
  CalibrationResult result;
  EXPECT_TRUE(calibrator.Solve(result));
  return result;
}

class EstimationNoiseProperty : public ::testing::TestWithParam<double> {};

TEST_P(EstimationNoiseProperty, CalibrationErrorBoundedByNoise) {
  const double noise = GetParam();
  const EnergyModel truth = EnergyModel::Default();
  const CalibrationResult result = CalibrateWithMeterNoise(truth, 2024, noise);
  // Weight error should be on the order of the meter noise: allow 5x plus a
  // small floor for the per-tick jitter.
  EXPECT_LT(result.max_relative_weight_error, 5.0 * noise + 0.02);
}

TEST_P(EstimationNoiseProperty, RandomWorkloadEstimationError) {
  const double noise = GetParam();
  const EnergyModel truth = EnergyModel::Default();
  const CalibrationResult calibration = CalibrateWithMeterNoise(truth, 7, noise);
  const EnergyEstimator estimator(calibration.weights, truth.active_base_power());

  Rng rng(1000 + static_cast<std::uint64_t>(noise * 1e4));
  double worst = 0.0;
  for (int trial = 0; trial < 20; ++trial) {
    EventRates rates{};
    for (std::size_t i = 0; i < kNumEventTypes; ++i) {
      rates[i] = rng.Uniform(20.0, 1500.0);
    }
    EventVector total{};
    double true_energy = 0.0;
    for (int t = 0; t < 200; ++t) {
      EventVector events{};
      for (std::size_t i = 0; i < kNumEventTypes; ++i) {
        events[i] = rates[i] * (1.0 + rng.Gaussian(0.0, 0.03));
        total[i] += events[i];
      }
      true_energy += truth.DynamicEnergy(events);
    }
    const double estimated = estimator.EstimateDynamicEnergy(total);
    worst = std::max(worst, std::abs(estimated - true_energy) / true_energy);
  }
  // The paper's bound (<10%) holds for realistic noise; degrade gracefully.
  EXPECT_LT(worst, 0.10 + 3.0 * noise);
}

INSTANTIATE_TEST_SUITE_P(NoiseLevels, EstimationNoiseProperty,
                         ::testing::Values(0.0, 0.01, 0.02, 0.05));

class ProfileWeightProperty : public ::testing::TestWithParam<double> {};

TEST_P(ProfileWeightProperty, ProfileConvergesForAnyWeight) {
  const double weight = GetParam();
  EnergyProfile profile(weight);
  profile.Seed(40.0);
  for (int i = 0; i < 400; ++i) {
    profile.AddPeriod(6.1, 100);  // constant 61 W
  }
  EXPECT_NEAR(profile.power(), 61.0, 0.5);
}

TEST_P(ProfileWeightProperty, SmallerWeightSmoothsMore) {
  const double weight = GetParam();
  EnergyProfile profile(weight);
  profile.Seed(40.0);
  profile.AddPeriod(8.0, 100);  // one 80 W spike
  const double moved = profile.power() - 40.0;
  EXPECT_NEAR(moved, weight * 40.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Weights, ProfileWeightProperty,
                         ::testing::Values(0.1, 0.2, 0.3, 0.5, 0.8));

}  // namespace
}  // namespace eas
