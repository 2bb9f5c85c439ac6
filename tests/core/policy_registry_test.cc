// BalancePolicyRegistry: built-in registration, lookup, unknown-name errors,
// runtime registration of new policies, and string selection end to end.

#include "src/core/policy_registry.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/energy_balancer.h"
#include "src/core/naive_balancers.h"
#include "src/sched/load_balancer.h"
#include "src/sim/machine.h"
#include "src/workloads/programs.h"
#include "tests/testing/fake_env.h"

namespace eas {
namespace {

TEST(PolicyRegistryTest, BuiltinsRegistered) {
  const std::vector<std::string> names = BalancePolicyRegistry::Global().Names();
  for (const char* expected :
       {"load_only", "energy_aware", "power_only", "temperature_only"}) {
    EXPECT_TRUE(std::find(names.begin(), names.end(), expected) != names.end())
        << "missing builtin policy " << expected;
    EXPECT_TRUE(BalancePolicyRegistry::Global().Contains(expected));
  }
}

template <typename Policy>
bool CreatesA(const char* name) {
  const std::unique_ptr<BalancePolicy> policy =
      BalancePolicyRegistry::Global().Create(name, EnergySchedConfig{});
  return dynamic_cast<const Policy*>(policy.get()) != nullptr;
}

TEST(PolicyRegistryTest, CreateBuildsNamedPolicy) {
  EXPECT_TRUE(CreatesA<LoadBalancer>("load_only"));
  EXPECT_TRUE(CreatesA<EnergyLoadBalancer>("energy_aware"));
  EXPECT_TRUE(CreatesA<PowerOnlyBalancer>("power_only"));
  EXPECT_TRUE(CreatesA<TemperatureOnlyBalancer>("temperature_only"));
}

TEST(PolicyRegistryTest, CreatedPolicyBalances) {
  // A 2-CPU imbalance the load step must fix, through the interface.
  FakeEnv env(CpuTopology(1, 2, 1));
  env.AddTask(30.0, 0);
  env.AddTask(30.0, 0);
  env.AddTask(30.0, 0);
  auto policy = BalancePolicyRegistry::Global().Create("load_only", EnergySchedConfig{});
  ASSERT_NE(policy, nullptr);
  EXPECT_GT(policy->Balance(1, env), 0);
  EXPECT_GT(env.migration_count(), 0);
}

TEST(PolicyRegistryTest, UnknownNameIsError) {
  const EnergySchedConfig config;
  EXPECT_EQ(BalancePolicyRegistry::Global().Create("no_such_policy", config), nullptr);
  EXPECT_FALSE(BalancePolicyRegistry::Global().Contains("no_such_policy"));

  // Two tests below register into the process-wide registry; the list
  // names them only once they have run.
  std::vector<std::string> known = {"energy_aware", "load_only", "power_only",
                                    "temperature_only"};
  for (const char* registered_by_a_test : {"dup_test_policy", "null_policy"}) {
    if (BalancePolicyRegistry::Global().Contains(registered_by_a_test)) {
      known.push_back(registered_by_a_test);
    }
  }
  std::sort(known.begin(), known.end());
  std::string list;
  for (const std::string& name : known) {
    list += (list.empty() ? "" : ", ") + name;
  }
  try {
    BalancePolicyRegistry::Global().CreateOrThrow("no_such_policy", config);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "unknown balancing policy \"no_such_policy\" (known: " + list + ")");
  }
}

TEST(PolicyRegistryTest, UnknownNameInMachineConfigThrows) {
  MachineConfig config;
  config.topology = CpuTopology(1, 2, 1);
  config.cooling = CoolingProfile::Uniform(2, ThermalParams{});
  config.estimator_weights = EnergyModel::Default().weights();
  config.sched.balancer_name = "definitely_not_registered";
  EXPECT_THROW(Machine machine(config), std::invalid_argument);
}

TEST(PolicyRegistryTest, DuplicateRegistrationRejected) {
  auto factory = [](const EnergySchedConfig& config) {
    return BalancePolicyRegistry::Global().Create("load_only", config);
  };
  EXPECT_TRUE(BalancePolicyRegistry::Global().Register("dup_test_policy", factory));
  EXPECT_FALSE(BalancePolicyRegistry::Global().Register("dup_test_policy", factory));
  EXPECT_FALSE(BalancePolicyRegistry::Global().Register("load_only", factory));
}

TEST(PolicyRegistryTest, PresetsSelectTheirPolicyByName) {
  EXPECT_EQ(EnergySchedConfig().balancer_name, "energy_aware");
  EXPECT_EQ(EnergySchedConfig::EnergyAware().balancer_name, "energy_aware");
  EXPECT_EQ(EnergySchedConfig::Baseline().balancer_name, "load_only");
}

// A policy that never migrates anything, registered at runtime and selected
// by name: new scenarios without touching the engine.
class NullPolicy : public BalancePolicy {
 public:
  int Balance(int, BalanceEnv&) override { return 0; }
};

TEST(PolicyRegistryTest, RuntimePolicySelectableByString) {
  BalancePolicyRegistry::Global().Register(
      "null_policy", [](const EnergySchedConfig&) { return std::make_unique<NullPolicy>(); });

  MachineConfig config;
  config.topology = CpuTopology(1, 2, 1);
  config.cooling = CoolingProfile::Uniform(2, ThermalParams{});
  config.estimator_weights = EnergyModel::Default().weights();
  config.sched.balancer_name = "null_policy";
  config.sched.hot_task_migration = false;
  // Least-loaded placement spreads tasks; with the null policy nothing may
  // ever migrate afterwards, however unbalanced things get.
  Machine machine(config);
  SimulationState& state = machine.state();
  EXPECT_NE(dynamic_cast<const NullPolicy*>(&machine.engine().policy()), nullptr);
  const ProgramLibrary library(EnergyModel::Default());
  state.Spawn(library.bitcnts());
  state.Spawn(library.bitcnts());
  state.Spawn(library.memrw());
  machine.Run(10'000);
  EXPECT_EQ(state.migration_count(), 0);
}


TEST(PolicyRegistryTest, SchedConfigForPolicyLoadOnlyIsFullBaseline) {
  const EnergySchedConfig config = SchedConfigForPolicy("load_only");
  EXPECT_EQ(config.balancer_name, "load_only");
  EXPECT_FALSE(config.hot_task_migration);
  EXPECT_FALSE(config.energy_aware_placement);
}

TEST(PolicyRegistryTest, SchedConfigForPolicySelectsByName) {
  for (const char* name : {"energy_aware", "power_only", "temperature_only", "my_custom"}) {
    const EnergySchedConfig config = SchedConfigForPolicy(name);
    EXPECT_EQ(config.balancer_name, name);
    EXPECT_TRUE(config.hot_task_migration) << name;
    EXPECT_TRUE(config.energy_aware_placement) << name;
  }
}

}  // namespace
}  // namespace eas
