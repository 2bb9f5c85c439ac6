#include "src/thermal/throttle_controller.h"

namespace eas {

ThrottleController::ThrottleController(double hysteresis_watts)
    : hysteresis_watts_(hysteresis_watts) {}

bool ThrottleController::ShouldThrottle(double thermal_power_watts, double max_power_watts) {
  if (throttled_) {
    if (thermal_power_watts < max_power_watts - hysteresis_watts_) {
      throttled_ = false;
    }
  } else {
    if (thermal_power_watts > max_power_watts) {
      throttled_ = true;
    }
  }
  return throttled_;
}

void ThrottleController::AccountTick(bool throttled, bool had_demand) {
  ++total_ticks_;
  if (throttled) {
    ++throttled_ticks_;
  }
  if (had_demand) {
    ++demand_ticks_;
  }
}

double ThrottleController::ThrottledFraction() const {
  if (total_ticks_ == 0) {
    return 0.0;
  }
  return static_cast<double>(throttled_ticks_) / static_cast<double>(total_ticks_);
}

}  // namespace eas
