#include "src/core/policy_registry.h"

#include <stdexcept>

#include "src/core/energy_balancer.h"
#include "src/core/naive_balancers.h"
#include "src/sched/load_balancer.h"

namespace eas {
namespace {

void RegisterBuiltins(BalancePolicyRegistry& registry) {
  registry.Register("load_only",
                    [](const EnergySchedConfig&) { return std::make_unique<LoadBalancer>(); });
  registry.Register("energy_aware", [](const EnergySchedConfig& config) {
    return std::make_unique<EnergyLoadBalancer>(config.balancer);
  });
  registry.Register("power_only",
                    [](const EnergySchedConfig&) { return std::make_unique<PowerOnlyBalancer>(); });
  registry.Register("temperature_only", [](const EnergySchedConfig&) {
    return std::make_unique<TemperatureOnlyBalancer>();
  });
}

}  // namespace

BalancePolicyRegistry& BalancePolicyRegistry::Global() {
  static BalancePolicyRegistry* registry = [] {
    auto* r = new BalancePolicyRegistry();
    RegisterBuiltins(*r);
    return r;
  }();
  return *registry;
}

std::unique_ptr<BalancePolicy> BalancePolicyRegistry::Create(
    const std::string& name, const EnergySchedConfig& config) const {
  const std::optional<Factory> factory = Find(name);
  return factory.has_value() ? (*factory)(config) : nullptr;
}

std::unique_ptr<BalancePolicy> BalancePolicyRegistry::CreateOrThrow(
    const std::string& name, const EnergySchedConfig& config) const {
  std::unique_ptr<BalancePolicy> policy = Create(name, config);
  if (policy == nullptr) {
    throw std::invalid_argument(UnknownMessage("balancing policy", name));
  }
  return policy;
}

EnergySchedConfig SchedConfigForPolicy(const std::string& name) {
  if (name == "load_only") {
    return EnergySchedConfig::Baseline();
  }
  EnergySchedConfig config = EnergySchedConfig::EnergyAware();
  config.balancer_name = name;
  return config;
}

}  // namespace eas
