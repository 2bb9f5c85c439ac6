// hlt-based thermal throttling (paper Sections 6.2, 6.4).
//
// "Whenever a CPU's thermal power rose above the value corresponding to 38 C,
// we throttled the CPU by executing the hlt instruction."
//
// The controller is a per logical CPU hysteresis loop on the thermal-power
// metric: when thermal power exceeds the CPU's maximum power the CPU halts
// (no work, halt power only) until the metric has fallen below the limit by
// a hysteresis margin. Throttled ticks are accounted for Table 3.

#ifndef SRC_THERMAL_THROTTLE_CONTROLLER_H_
#define SRC_THERMAL_THROTTLE_CONTROLLER_H_

#include "src/base/time.h"

namespace eas {

class ThrottleController {
 public:
  // `hysteresis_watts`: how far thermal power must fall below the limit
  // before execution resumes. Small values duty-cycle the CPU near the limit
  // the way BIOS hlt throttling does.
  explicit ThrottleController(double hysteresis_watts);

  // Updates the throttle state given the CPU's current thermal power and
  // limit; returns true if the CPU must halt this tick.
  bool ShouldThrottle(double thermal_power_watts, double max_power_watts);

  // Records one tick of outcome (throttled or not) for statistics.
  // `had_demand` tracks whether the CPU wanted to run this tick (a task was
  // queued or current); per-package controllers, where demand is not a
  // meaningful notion, use the default. Experiment reporting uses the demand
  // count to tell "never throttled" apart from "never wanted to run".
  void AccountTick(bool throttled, bool had_demand = true);

  bool throttled() const { return throttled_; }
  Tick demand_ticks() const { return demand_ticks_; }

  // Fraction of accounted ticks spent throttled (Table 3's percentages).
  double ThrottledFraction() const;

 private:
  double hysteresis_watts_;
  bool throttled_ = false;
  Tick throttled_ticks_ = 0;
  Tick total_ticks_ = 0;
  Tick demand_ticks_ = 0;
};

}  // namespace eas

#endif  // SRC_THERMAL_THROTTLE_CONTROLLER_H_
