#include "src/task/energy_profile.h"

namespace eas {

EnergyProfile::EnergyProfile(double sample_weight)
    : average_(sample_weight, TicksToSeconds(kTimesliceTicks)) {}

void EnergyProfile::AddPeriod(double energy_joules, Tick period_ticks) {
  if (period_ticks <= 0) {
    return;
  }
  const double period_seconds = TicksToSeconds(period_ticks);
  // Rate per standard period == average power in watts (period-normalized).
  average_.AddRateSample(energy_joules / period_seconds, period_seconds);
}

void EnergyProfile::Seed(double power_watts) { average_.Reset(power_watts); }

}  // namespace eas
