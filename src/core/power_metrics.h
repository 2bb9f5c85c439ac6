// Per-CPU power metrics (paper Section 4.3).
//
// Two metrics with deliberately different dynamics drive all decisions:
//  - runqueue power: the average of the energy profiles of the tasks in a
//    CPU's runqueue. Changes *immediately* when a task migrates, which keeps
//    a balancer from pulling an undue number of tasks.
//  - thermal power: a per-CPU exponential average of consumed energy whose
//    weight is calibrated to the RC model's time constant, so it follows
//    temperature. Changes *slowly*, which provides hysteresis.
// Both are expressed as ratios against the CPU's maximum power so CPUs with
// different cooling characteristics balance to the same temperature.

#ifndef SRC_CORE_POWER_METRICS_H_
#define SRC_CORE_POWER_METRICS_H_

#include "src/base/exp_average.h"
#include "src/base/time.h"

namespace eas {

class CpuPowerState {
 public:
  // `max_power_watts`: maximum sustainable power of this logical CPU;
  // `tau_seconds`: thermal time constant of the package (R*C);
  // `initial_power_watts`: seed for the thermal power average (idle power).
  CpuPowerState(double max_power_watts, double tau_seconds, double initial_power_watts);

  // Folds `joules` consumed over `period_seconds` into the thermal power.
  void AccountEnergy(double joules, double period_seconds);

  // The recurrence AccountEnergy(joules, period_seconds) applies to the
  // thermal power (the average is seeded at construction, so it always has
  // samples). The skip-ahead kernel steps it over an idle span.
  ExpAverage::Recurrence EnergyRecurrence(double joules, double period_seconds);

  // Thermal power (W): follows the package temperature.
  double thermal_power() const { return thermal_average_.value(); }

  double max_power() const { return max_power_watts_; }

  // Forces the thermal power (e.g. starting an experiment from idle-warm, or
  // storing the value a skip-ahead span stepped to).
  void SeedThermalPower(double watts) { thermal_average_.Reset(watts); }

 private:
  double max_power_watts_;
  ExpAverage thermal_average_;
};

}  // namespace eas

#endif  // SRC_CORE_POWER_METRICS_H_
