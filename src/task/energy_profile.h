// Task energy profile (paper Section 3.3).
//
// "The energy a task consumed the last time it was executed is a good guess
// for the energy that the task will consume the next time" - smoothed with a
// variable-period exponential average so momentary spikes do not provoke
// migrations while persistent phase changes show up after a few timeslices.
//
// The profile tracks *power* in watts: each sample is the energy a task
// consumed over an execution period of arbitrary length (a full timeslice, or
// less if the task blocked or was preempted).

#ifndef SRC_TASK_ENERGY_PROFILE_H_
#define SRC_TASK_ENERGY_PROFILE_H_

#include "src/base/exp_average.h"
#include "src/base/time.h"

namespace eas {

class EnergyProfile {
 public:
  // `sample_weight` is p from Equation 2 for a standard-length timeslice,
  // the nice-0 kTimesliceTicks.
  explicit EnergyProfile(double sample_weight = kDefaultSampleWeight);

  // Folds in one execution period: `energy_joules` consumed over
  // `period_ticks` ticks of execution.
  void AddPeriod(double energy_joules, Tick period_ticks);

  // Seeds the profile (from the binary registry, or a default for binaries
  // started for the very first time).
  void Seed(double power_watts);

  // Expected power (W) during the task's next timeslice.
  double power() const { return average_.value(); }

  bool has_samples() const { return average_.has_samples(); }

  static constexpr double kDefaultSampleWeight = 0.3;

 private:
  ExpAverage average_;
};

}  // namespace eas

#endif  // SRC_TASK_ENERGY_PROFILE_H_
