#include "src/counters/calibration.h"

#include <cassert>
#include <cmath>

#include "src/base/linear_solver.h"

namespace eas {

Calibrator::Calibrator(const EnergyModel& truth) : truth_(truth) {}

void Calibrator::RunWorkload(const EventRates& rates, int ticks, PowerMeter& meter, Rng& rng) {
  CalibrationRun run;
  double true_energy = 0.0;
  // Per-tick jitter models the natural variation of real code. One call draws
  // the run's normals, exactly the ones per-event Gaussian(0.0, 0.03) calls
  // would and no more (the caller's generator draws uniforms between
  // workloads), and each keeps that call's `0.0 + sigma * g` arithmetic.
  normals_.resize(ticks > 0 ? static_cast<std::size_t>(ticks) * kNumEventTypes : 0);
  rng.NextGaussians(normals_);
  for (std::size_t t = 0; t < normals_.size(); t += kNumEventTypes) {
    EventVector tick_events{};
    for (std::size_t i = 0; i < kNumEventTypes; ++i) {
      const double jitter = 1.0 + (0.0 + 0.03 * normals_[t + i]);
      tick_events[i] = rates[i] * std::max(0.0, jitter);
      run.events[i] += tick_events[i];
    }
    true_energy += truth_.DynamicEnergy(tick_events);
  }
  run.measured_energy = meter.MeasureEnergy(true_energy);
  runs_.push_back(run);
}

void Calibrator::AddRun(const CalibrationRun& run) { runs_.push_back(run); }

bool Calibrator::Solve(CalibrationResult& result) const {
  if (runs_.size() < kNumEventTypes) {
    return false;
  }
  Matrix a(runs_.size(), kNumEventTypes);
  std::vector<double> b(runs_.size(), 0.0);
  for (std::size_t r = 0; r < runs_.size(); ++r) {
    for (std::size_t c = 0; c < kNumEventTypes; ++c) {
      a.at(r, c) = runs_[r].events[c];
    }
    b[r] = runs_[r].measured_energy;
  }
  auto solution = LeastSquares(a, b);
  if (!solution.has_value()) {
    return false;
  }
  for (std::size_t i = 0; i < kNumEventTypes; ++i) {
    result.weights[i] = (*solution)[i];
  }
  result.runs_used = runs_.size();
  result.max_relative_weight_error = 0.0;
  for (std::size_t i = 0; i < kNumEventTypes; ++i) {
    const double truth = truth_.weights()[i];
    if (truth > 0.0) {
      const double err = std::fabs(result.weights[i] - truth) / truth;
      result.max_relative_weight_error = std::max(result.max_relative_weight_error, err);
    }
  }
  return true;
}

void Calibrator::RunDefaultBattery(PowerMeter& meter, Rng& rng) {
  // One run per dominant event class keeps the system well conditioned...
  for (std::size_t dominant = 0; dominant < kNumEventTypes; ++dominant) {
    EventRates rates{};
    for (std::size_t i = 0; i < kNumEventTypes; ++i) {
      rates[i] = (i == dominant) ? 1500.0 : 60.0;
    }
    RunWorkload(rates, /*ticks=*/2000, meter, rng);
  }
  // ...and mixed runs average out the meter noise.
  for (int mix = 0; mix < 10; ++mix) {
    EventRates rates{};
    for (std::size_t i = 0; i < kNumEventTypes; ++i) {
      rates[i] = rng.Uniform(50.0, 1200.0);
    }
    RunWorkload(rates, /*ticks=*/2000, meter, rng);
  }
}

CalibrationResult Calibrator::CalibrateDefault(const EnergyModel& truth, std::uint64_t seed) {
  Calibrator calibrator(truth);
  PowerMeter meter(seed ^ 0x5eedu, kMeterErrorStddev);
  Rng rng(seed);
  calibrator.RunDefaultBattery(meter, rng);

  CalibrationResult result;
  const bool ok = calibrator.Solve(result);
  assert(ok);
  (void)ok;
  return result;
}

}  // namespace eas
