#include "src/counters/energy_estimator.h"

#include <cassert>

namespace eas {

EnergyEstimator::EnergyEstimator(const EventWeights& weights,
                                 double static_power_per_logical_watts)
    : weights_(weights), static_power_per_logical_watts_(static_power_per_logical_watts) {}

EnergyEstimator EnergyEstimator::Oracle(const EnergyModel& model, std::size_t smt_siblings) {
  assert(smt_siblings >= 1);
  return EnergyEstimator(model.weights(),
                         model.active_base_power() / static_cast<double>(smt_siblings));
}

double EnergyEstimator::EstimateDynamicEnergy(const EventVector& counter_diff) const {
  double energy = 0.0;
  for (std::size_t i = 0; i < kNumEventTypes; ++i) {
    energy += weights_[i] * counter_diff[i];
  }
  return energy;
}

double EnergyEstimator::EstimateEnergy(const EventVector& counter_diff, Tick active_ticks) const {
  return EstimateDynamicEnergy(counter_diff) +
         static_power_per_logical_watts_ * TicksToSeconds(active_ticks);
}

}  // namespace eas
