// Master switchboard for the energy-aware scheduling features.
//
// Experiments toggle features against the baseline: the paper's
// "energy balancing disabled" runs use plain load balancing and least-loaded
// initial placement; "enabled" runs use the merged balancer, hot task
// migration, and energy-aware placement.

#ifndef SRC_CORE_ENERGY_SCHED_CONFIG_H_
#define SRC_CORE_ENERGY_SCHED_CONFIG_H_

#include <string>

#include "src/core/energy_balancer.h"

namespace eas {

struct EnergySchedConfig {
  // The balancing policy that runs when a CPU rebalances, by
  // BalancePolicyRegistry name (src/core/policy_registry.h): "load_only"
  // (stock Linux, the baseline), "energy_aware" (the paper's merged
  // dual-metric algorithm, Figure 4), the strawmen "power_only" and
  // "temperature_only", or any policy registered at runtime.
  std::string balancer_name = "energy_aware";
  bool hot_task_migration = true;
  bool energy_aware_placement = true;

  EnergyLoadBalancer::Options balancer;

  // Everything off: stock Linux behaviour (the paper's baseline).
  static EnergySchedConfig Baseline() {
    EnergySchedConfig config;
    config.balancer_name = "load_only";
    config.hot_task_migration = false;
    config.energy_aware_placement = false;
    return config;
  }

  // Everything on (the paper's policy).
  static EnergySchedConfig EnergyAware() { return EnergySchedConfig(); }
};

}  // namespace eas

#endif  // SRC_CORE_ENERGY_SCHED_CONFIG_H_
