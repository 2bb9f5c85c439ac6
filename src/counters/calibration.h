// Counter-weight calibration pipeline (paper Section 3.2).
//
// "The weights a_i are calibrated by measuring the real energy consumption
// with a multimeter for several test applications, counting the events that
// occur during the test runs, and solving the resulting linear equations."
//
// We run a set of calibration workloads (distinct event-rate mixes) against
// the true EnergyModel, measure each run's dynamic energy with the noisy
// PowerMeter, and recover the weights by least squares. The recovered weights
// feed the EnergyEstimator used by the scheduler; the residual calibration
// error is what bounds the paper's "<10% estimation error".

#ifndef SRC_COUNTERS_CALIBRATION_H_
#define SRC_COUNTERS_CALIBRATION_H_

#include <cstdint>
#include <vector>

#include "src/counters/energy_model.h"
#include "src/counters/event_types.h"
#include "src/counters/power_meter.h"

namespace eas {

struct CalibrationRun {
  EventVector events{};          // counted events of the run
  double measured_energy = 0.0;  // multimeter reading (dynamic part)
};

struct CalibrationResult {
  EventWeights weights{};
  double max_relative_weight_error = 0.0;  // vs. ground truth (diagnostics)
  std::size_t runs_used = 0;
};

class Calibrator {
 public:
  explicit Calibrator(const EnergyModel& truth);

  // Executes one calibration run of `ticks` ticks emitting `rates` per tick
  // (with per-tick multiplicative jitter) and records the meter reading.
  void RunWorkload(const EventRates& rates, int ticks, PowerMeter& meter, Rng& rng);

  // Adds an externally produced run.
  void AddRun(const CalibrationRun& run);

  // Solves for the weights. Requires at least kNumEventTypes runs with
  // linearly independent event mixes. Returns false on a singular system.
  bool Solve(CalibrationResult& result) const;

  // Runs the standard battery of well-conditioned calibration mixes: one
  // dominant event class per run, then mixed runs drawn from `rng`.
  void RunDefaultBattery(PowerMeter& meter, Rng& rng);

  // The one-call path the simulator setup uses: the default battery against
  // a meter with kMeterErrorStddev noise, solved.
  static CalibrationResult CalibrateDefault(const EnergyModel& truth, std::uint64_t seed);

  // The meter's instrument error: 2% relative, Gaussian.
  static constexpr double kMeterErrorStddev = 0.02;

 private:
  const EnergyModel& truth_;
  std::vector<CalibrationRun> runs_;
  std::vector<double> normals_;  // one workload's jitter normals, reused
};

}  // namespace eas

#endif  // SRC_COUNTERS_CALIBRATION_H_
