// BalancePolicyRegistry: built-in registration, lookup, unknown-name errors,
// runtime registration of new policies, and string selection end to end.

#include "src/core/policy_registry.h"

#include <gtest/gtest.h>

#include <algorithm>

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

TEST(PolicyRegistryTest, CreateBuildsNamedPolicy) {
  const EnergySchedConfig config;
  for (const char* name : {"load_only", "energy_aware", "power_only", "temperature_only"}) {
    auto policy = BalancePolicyRegistry::Global().Create(name, config);
    ASSERT_NE(policy, nullptr) << name;
    EXPECT_EQ(policy->name(), name);
  }
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
  EXPECT_THROW(BalancePolicyRegistry::Global().CreateOrThrow("no_such_policy", config),
               std::invalid_argument);
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

TEST(PolicyRegistryTest, EffectiveNameResolution) {
  EnergySchedConfig config;
  EXPECT_EQ(EffectiveBalancerName(config), "energy_aware");
  config.balancer_kind = BalancerKind::kPowerOnly;
  EXPECT_EQ(EffectiveBalancerName(config), "power_only");
  config.balancer_kind = BalancerKind::kTemperatureOnly;
  EXPECT_EQ(EffectiveBalancerName(config), "temperature_only");
  config.balancer_name = "my_custom";  // explicit name beats the enum
  EXPECT_EQ(EffectiveBalancerName(config), "my_custom");
  config.energy_balancing = false;  // disabled beats everything
  EXPECT_EQ(EffectiveBalancerName(config), "load_only");
}

// A policy that never migrates anything, registered at runtime and selected
// by name: new scenarios without touching the engine.
class NullPolicy : public BalancePolicy {
 public:
  int Balance(int, BalanceEnv&) override { return 0; }
  const std::string& name() const override {
    static const std::string kName = "null_policy";
    return kName;
  }
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
  EXPECT_EQ(machine.engine().policy().name(), "null_policy");
  const ProgramLibrary library(EnergyModel::Default());
  state.Spawn(library.bitcnts());
  state.Spawn(library.bitcnts());
  state.Spawn(library.memrw());
  machine.Run(10'000);
  EXPECT_EQ(state.migration_count(), 0);
}


TEST(PolicyRegistryTest, SchedConfigForPolicyLoadOnlyIsFullBaseline) {
  const EnergySchedConfig config = SchedConfigForPolicy("load_only");
  EXPECT_FALSE(config.energy_balancing);
  EXPECT_FALSE(config.hot_task_migration);
  EXPECT_FALSE(config.energy_aware_placement);
  EXPECT_EQ(EffectiveBalancerName(config), "load_only");
}

TEST(PolicyRegistryTest, SchedConfigForPolicySelectsByName) {
  for (const char* name : {"energy_aware", "power_only", "temperature_only", "my_custom"}) {
    const EnergySchedConfig config = SchedConfigForPolicy(name);
    EXPECT_TRUE(config.energy_balancing) << name;
    EXPECT_TRUE(config.hot_task_migration) << name;
    EXPECT_TRUE(config.energy_aware_placement) << name;
    EXPECT_EQ(config.balancer_name, name);
    EXPECT_EQ(EffectiveBalancerName(config), name);
  }
}

}  // namespace
}  // namespace eas
