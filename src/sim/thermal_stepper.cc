#include "src/sim/thermal_stepper.h"

namespace eas {

void ThermalStepper::StepPackage(SimulationState& state, std::size_t physical,
                                 std::size_t active_count, double true_dynamic) const {
  const EnergyModel& model = state.config().model;
  const double n_active = static_cast<double>(active_count);
  const double n_total = static_cast<double>(state.config().topology.smt_per_physical());
  // Offlined siblings are powered down: only the online share of the
  // package draws halt power. With every sibling online, n_online / n_total
  // is exactly 1.0 (x/x == 1.0 for finite nonzero x), so fault-free runs get
  // the full package's halt power bit for bit.
  const double n_online = static_cast<double>(state.online_siblings(physical));
  const double static_true =
      active_count == 0
          ? model.halt_power() * (n_online / n_total)
          : model.active_base_power() * (n_active / n_total) +
                model.halt_power() * ((n_online - n_active) / n_total);
  const double true_power = static_true + true_dynamic / kTickSeconds;
  state.set_true_power(physical, true_power);
  state.thermal(physical).Step(true_power, kTickSeconds);
}

}  // namespace eas
