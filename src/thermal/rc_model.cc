#include "src/thermal/rc_model.h"

#include <cassert>
#include <cmath>

namespace eas {

RcThermalModel::RcThermalModel(const ThermalParams& params)
    : params_(params), temperature_(params.ambient) {
  assert(params.resistance > 0.0);
  assert(params.capacitance > 0.0);
}

RcThermalModel::Recurrence RcThermalModel::RecurrenceFor(double power_watts,
                                                         double dt_seconds) {
  // Exact solution of the linear ODE over the step (unconditionally stable,
  // exact for constant power within the step):
  //   T(t+dt) = T_ss + (T(t) - T_ss) * exp(-dt / tau)
  // The decay depends on dt alone, and the engine steps every package at
  // kTickSeconds, so exp() is memoized on dt. std::exp is deterministic for
  // identical arguments, so the memoized value is bit-identical to
  // recomputing it.
  if (dt_seconds != cached_dt_) {
    cached_dt_ = dt_seconds;
    cached_decay_ = std::exp(-dt_seconds / params_.TimeConstant());
  }
  return {params_.SteadyStateTemp(power_watts), cached_decay_};
}

void RcThermalModel::Step(double power_watts, double dt_seconds) {
  temperature_ = RecurrenceFor(power_watts, dt_seconds)(temperature_);
}

}  // namespace eas
