#include "src/core/power_metrics.h"

namespace eas {

CpuPowerState::CpuPowerState(double max_power_watts, double tau_seconds,
                             double initial_power_watts)
    : max_power_watts_(max_power_watts),
      thermal_average_(ExpAverage::WithTimeConstant(tau_seconds, kTickSeconds)) {
  thermal_average_.Reset(initial_power_watts);
}

void CpuPowerState::AccountEnergy(double joules, double period_seconds) {
  // Rate per standard period (one tick) == average power over the period.
  thermal_average_.AddRateSample(joules / period_seconds, period_seconds);
}

ExpAverage::Recurrence CpuPowerState::EnergyRecurrence(double joules, double period_seconds) {
  return thermal_average_.RecurrenceFor(joules / period_seconds, period_seconds);
}

}  // namespace eas
