// Name -> factory registry for balancing policies.
//
// The engine selects its BalancePolicy by string (EnergySchedConfig::
// balancer_name), so experiments switch policies from configuration or
// command-line flags without touching scheduler or engine code. Factories
// receive the EnergySchedConfig and build the policy with its options (e.g.
// the energy balancer's margins).
//
// Built-in policies ("load_only", "energy_aware", "power_only",
// "temperature_only") are registered on first access; additional policies
// can be registered at runtime (e.g. from tests or tools).

#ifndef SRC_CORE_POLICY_REGISTRY_H_
#define SRC_CORE_POLICY_REGISTRY_H_

#include <functional>
#include <memory>
#include <string>

#include "src/base/registry.h"
#include "src/core/energy_sched_config.h"
#include "src/sched/balance_policy.h"

namespace eas {

class BalancePolicyRegistry
    : public Registry<
          std::function<std::unique_ptr<BalancePolicy>(const EnergySchedConfig&)>> {
 public:
  using Factory = Entry;

  // The process-wide registry, with the built-in policies pre-registered.
  static BalancePolicyRegistry& Global();

  // Builds the policy registered under `name`; nullptr if unknown.
  std::unique_ptr<BalancePolicy> Create(const std::string& name,
                                        const EnergySchedConfig& config) const;

  // Like Create, but throws std::invalid_argument naming the known policies
  // when `name` is unknown - the engine's constructor path.
  std::unique_ptr<BalancePolicy> CreateOrThrow(const std::string& name,
                                               const EnergySchedConfig& config) const;

 private:
  BalancePolicyRegistry() = default;
};

// The scheduling configuration a registry policy name stands for:
// "load_only" is the paper's full baseline (plain load balancing, no hot
// task migration, no energy-aware placement); any other name keeps the
// energy-aware feature set and selects that balancing policy by name. The
// name is not validated here - resolve it against a BalancePolicyRegistry
// (unknown names throw from the engine's CreateOrThrow path).
EnergySchedConfig SchedConfigForPolicy(const std::string& name);

}  // namespace eas

#endif  // SRC_CORE_POLICY_REGISTRY_H_
