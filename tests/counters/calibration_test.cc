#include "src/counters/calibration.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "src/counters/energy_estimator.h"

namespace eas {
namespace {

TEST(CalibrationTest, RecoversWeightsWithinTolerance) {
  const EnergyModel truth = EnergyModel::Default();
  const CalibrationResult result = Calibrator::CalibrateDefault(truth, 123);
  EXPECT_EQ(result.runs_used, 16u);
  // With 2% meter noise the recovered weights must stay within 10% of truth
  // (the paper's overall estimation error bound).
  EXPECT_LT(result.max_relative_weight_error, 0.10);
  for (std::size_t i = 0; i < kNumEventTypes; ++i) {
    EXPECT_GT(result.weights[i], 0.0) << "weight " << i << " must be positive";
  }
}

TEST(CalibrationTest, DefaultWeightsKnownAnswer) {
  // The exact weights one seed calibrates to: any change to the order or
  // arithmetic of the calibration noise moves at least one of these bits.
  const CalibrationResult result = Calibrator::CalibrateDefault(EnergyModel::Default(), 123);
  constexpr std::uint64_t kExpected[kNumEventTypes] = {
      0x3ee12f12bc76d58bULL, 0x3ee5d34461c371b0ULL, 0x3ef83fb96635bbc8ULL,
      0x3eff0a8c11a16a72ULL, 0x3f0862b78d4e1ed4ULL, 0x3ed9c82b78a74160ULL,
  };
  for (std::size_t i = 0; i < kNumEventTypes; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(result.weights[i]), kExpected[i])
        << "weight " << i << " = " << result.weights[i];
  }
}

TEST(CalibrationTest, PerfectMeterRecoversAlmostExactly) {
  const EnergyModel truth = EnergyModel::Default();
  Calibrator calibrator(truth);
  PowerMeter meter(7, /*relative_error_stddev=*/0.0);
  Rng rng(7);
  calibrator.RunDefaultBattery(meter, rng);
  CalibrationResult result;
  ASSERT_TRUE(calibrator.Solve(result));
  // Only per-tick rate jitter remains; least squares still averages it out.
  EXPECT_LT(result.max_relative_weight_error, 0.02);
}

TEST(CalibrationTest, SolveRequiresEnoughRuns) {
  const EnergyModel truth = EnergyModel::Default();
  Calibrator calibrator(truth);
  CalibrationRun run;
  run.events[0] = 100.0;
  run.measured_energy = 1.0;
  calibrator.AddRun(run);
  CalibrationResult result;
  EXPECT_FALSE(calibrator.Solve(result));
}

TEST(CalibrationTest, DegenerateRunsAreSingular) {
  const EnergyModel truth = EnergyModel::Default();
  Calibrator calibrator(truth);
  // Identical runs: rank 1 system.
  for (int i = 0; i < 10; ++i) {
    CalibrationRun run;
    for (std::size_t j = 0; j < kNumEventTypes; ++j) {
      run.events[j] = 100.0;
    }
    run.measured_energy = 1.0;
    calibrator.AddRun(run);
  }
  CalibrationResult result;
  EXPECT_FALSE(calibrator.Solve(result));
}

TEST(CalibrationTest, EndToEndEstimationErrorUnderTenPercent) {
  // The paper's headline bound: estimation error < 10% for real workloads.
  const EnergyModel truth = EnergyModel::Default();
  const CalibrationResult calibration = Calibrator::CalibrateDefault(truth, 99);
  const EnergyEstimator estimator(calibration.weights, truth.active_base_power());

  Rng rng(4242);
  for (int trial = 0; trial < 50; ++trial) {
    // A random "application": random mix, run for 100 ticks.
    EventRates rates{};
    for (std::size_t i = 0; i < kNumEventTypes; ++i) {
      rates[i] = rng.Uniform(10.0, 1500.0);
    }
    EventVector total{};
    double true_energy = 0.0;
    for (int t = 0; t < 100; ++t) {
      EventVector events{};
      for (std::size_t i = 0; i < kNumEventTypes; ++i) {
        events[i] = rates[i] * (1.0 + rng.Gaussian(0.0, 0.03));
        total[i] += events[i];
      }
      true_energy += truth.DynamicEnergy(events);
    }
    const double estimated = estimator.EstimateDynamicEnergy(total);
    const double error = std::abs(estimated - true_energy) / true_energy;
    EXPECT_LT(error, 0.10) << "trial " << trial;
  }
}

}  // namespace
}  // namespace eas
