// Frequency governors: the policy side of the DVFS layer.
//
// A governor decides, per physical package per tick, which P-state the
// package's FrequencyDomain should run at. It sees only aggregate inputs
// (thermal power vs budget, utilization, the hlt gate's decision), mirroring
// how balancing policies see the machine only through BalanceEnv - governors
// know nothing about the simulator. Concrete governors live in
// src/freq/governors.{h,cc} and are selected by name through the
// FrequencyGovernorRegistry (src/freq/governor_registry.h), exactly like
// balancing policies through the BalancePolicyRegistry.

#ifndef SRC_FREQ_FREQUENCY_GOVERNOR_H_
#define SRC_FREQ_FREQUENCY_GOVERNOR_H_

#include <cstddef>

#include "src/base/time.h"

namespace eas {

// Everything a governor may base one package's decision on. One governor
// instance serves one package (the FrequencyPhase creates one per domain),
// so governors may keep per-package state (hold counters, last change tick)
// as plain members.
struct GovernorInputs {
  Tick now = 0;
  std::size_t current_pstate = 0;
  std::size_t num_pstates = 1;

  // The package's thermal-power metric (sum over siblings, W) and its power
  // budget - the same quantities the hlt ThrottleGate compares.
  double thermal_power_watts = 0.0;
  double budget_watts = 0.0;
  // Step-up headroom margin: the hlt throttle's kThrottleHysteresisWatts.
  double hysteresis_watts = 0.5;

  // Runnable share of the package's sibling capacity, in [0, 1]: how many
  // logical CPUs have work queued or running.
  double utilization = 0.0;

  // Whether the hlt gate halted the package this tick (a governor may defer
  // to throttling or react to it).
  bool package_throttled = false;
};

class FrequencyGovernor {
 public:
  virtual ~FrequencyGovernor() = default;

  // Returns the P-state the package should run at for this tick. Values past
  // the deepest state are clamped by the domain.
  virtual std::size_t DecidePState(const GovernorInputs& inputs) = 0;
};

}  // namespace eas

#endif  // SRC_FREQ_FREQUENCY_GOVERNOR_H_
