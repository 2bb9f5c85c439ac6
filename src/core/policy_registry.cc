#include "src/core/policy_registry.h"

#include <stdexcept>
#include <type_traits>
#include <utility>

#include "src/core/energy_balancer.h"
#include "src/core/naive_balancers.h"
#include "src/sched/load_balancer.h"

namespace eas {
namespace {

// A balancer class declares `static constexpr bool kIdleMachineNoop = true`
// (with the proof in a comment at the declaration) to let the engine's
// skip-ahead elide its idle-interval passes; anything without the member
// stays conservatively on the naive path.
template <typename Balancer, typename = void>
struct IdleMachineNoopTrait : std::false_type {};
template <typename Balancer>
struct IdleMachineNoopTrait<Balancer, std::void_t<decltype(Balancer::kIdleMachineNoop)>>
    : std::bool_constant<Balancer::kIdleMachineNoop> {};

// Adapts a concrete balancer (each with its own Balance signature) to the
// BalancePolicy interface. `Balancer::Balance` must be callable as
// `balancer.Balance(cpu, env)`; the migration count is derived from the
// return value.
template <typename Balancer>
class PolicyAdapter : public BalancePolicy {
 public:
  PolicyAdapter(std::string name, Balancer balancer)
      : name_(std::move(name)), balancer_(std::move(balancer)) {}

  int Balance(int cpu, BalanceEnv& env) override {
    return Migrations(balancer_.Balance(cpu, env));
  }

  const std::string& name() const override { return name_; }

  bool IdleMachineIsNoop() const override { return IdleMachineNoopTrait<Balancer>::value; }

 private:
  static int Migrations(int count) { return count; }
  static int Migrations(const EnergyLoadBalancer::Result& result) { return result.total(); }

  std::string name_;
  Balancer balancer_;
};

template <typename Balancer>
std::unique_ptr<BalancePolicy> MakeAdapter(std::string name, Balancer balancer) {
  return std::make_unique<PolicyAdapter<Balancer>>(std::move(name), std::move(balancer));
}

void RegisterBuiltins(BalancePolicyRegistry& registry) {
  registry.Register("load_only", [](const EnergySchedConfig&) {
    return MakeAdapter("load_only", LoadBalancer(LoadBalancer::Options{}));
  });
  registry.Register("energy_aware", [](const EnergySchedConfig& config) {
    return MakeAdapter("energy_aware", EnergyLoadBalancer(config.balancer));
  });
  registry.Register("power_only", [](const EnergySchedConfig&) {
    return MakeAdapter("power_only", PowerOnlyBalancer());
  });
  registry.Register("temperature_only", [](const EnergySchedConfig&) {
    return MakeAdapter("temperature_only", TemperatureOnlyBalancer());
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
