// Lumped RC thermal model (paper Section 4.2, Figure 2).
//
// One thermal resistor (heat sink to ambient) and one thermal capacitor
// (chip + heat sink) per physical CPU:
//
//   C * dT/dt = P - (T - T_ambient) / R
//
// Steady state gives T = T_ambient + R * P, so the maximum power a CPU can
// dissipate without exceeding a temperature limit is
//   P_max = (T_limit - T_ambient) / R.
// The step response is exponential with time constant tau = R * C, which the
// thermal-power exponential average is calibrated against (Section 4.3).
//
// In the simulator this model is both the ground truth (it produces the
// actual die temperature) and the model the scheduler assumes.

#ifndef SRC_THERMAL_RC_MODEL_H_
#define SRC_THERMAL_RC_MODEL_H_

#include <limits>

namespace eas {

struct ThermalParams {
  double resistance = 0.30;     // K/W, heat sink to ambient
  double capacitance = 40.0;    // J/K, chip + heat sink
  double ambient = 22.0;        // deg C

  double TimeConstant() const { return resistance * capacitance; }
  double SteadyStateTemp(double power_watts) const { return ambient + resistance * power_watts; }
  double MaxPowerForTemp(double temp_limit) const { return (temp_limit - ambient) / resistance; }
  // Power level whose steady-state temperature equals `temp`; the inverse of
  // SteadyStateTemp, used to express temperature limits in the power domain.
  double PowerForTemp(double temp) const { return (temp - ambient) / resistance; }
};

class RcThermalModel {
 public:
  explicit RcThermalModel(const ThermalParams& params);

  // One step's recurrence toward the steady state,
  //   T <- t_ss + (T - t_ss) * decay,
  // the single definition Step and the skip-ahead span kernel
  // (src/base/lockstep.h) apply.
  struct Recurrence {
    double t_ss;
    double decay;
    double operator()(double temp) const { return t_ss + (temp - t_ss) * decay; }
  };

  // The recurrence Step(power_watts, dt_seconds) applies.
  Recurrence RecurrenceFor(double power_watts, double dt_seconds);

  // Advances the model by `dt_seconds` with `power_watts` dissipated.
  void Step(double power_watts, double dt_seconds);

  // Current die temperature (deg C).
  double temperature() const { return temperature_; }

  // Forces the temperature (initialization / tests).
  void SetTemperature(double temp) { temperature_ = temp; }

  const ThermalParams& params() const { return params_; }

 private:
  ThermalParams params_;
  double temperature_;
  // Memoized decay: cached_decay_ == exp(-cached_dt_ / tau) once a step has
  // run (NaN compares unequal to every dt, so the first call computes it).
  double cached_dt_ = std::numeric_limits<double>::quiet_NaN();
  double cached_decay_ = 1.0;
};

}  // namespace eas

#endif  // SRC_THERMAL_RC_MODEL_H_
