// The EnergyLoadBalancer's option knobs and constants: each margin must gate
// exactly the condition it documents. A constant is pinned by two states, one
// just inside its boundary (the balancer acts) and one just outside (it
// does not).

#include <gtest/gtest.h>

#include "src/core/energy_balancer.h"
#include "tests/testing/fake_env.h"

namespace eas {
namespace {

CpuTopology TwoCpus() { return CpuTopology(1, 2, 1); }

// A canonical imbalance: cpu0 hot by both metrics, cpu1 cool.
void BuildImbalance(FakeEnv& env) {
  env.AddRunningTask(61.0, 0);
  env.AddTask(61.0, 0);
  env.AddRunningTask(38.0, 1);
  env.AddTask(38.0, 1);
  env.SetThermalPower(0, 55.0);
  env.SetThermalPower(1, 36.0);
}

TEST(BalancerOptionsTest, DefaultOptionsMigrate) {
  FakeEnv env(TwoCpus());
  BuildImbalance(env);
  EnergyLoadBalancer balancer(EnergyLoadBalancer::Options{});
  EXPECT_EQ(balancer.BalanceSteps(1, env).energy_migrations, 1);
}

TEST(BalancerOptionsTest, HugeThermalMarginBlocks) {
  FakeEnv env(TwoCpus());
  BuildImbalance(env);
  EnergyLoadBalancer::Options options;
  options.thermal_ratio_margin = 10.0;  // unreachable
  EnergyLoadBalancer balancer(options);
  EXPECT_EQ(balancer.BalanceSteps(1, env).energy_migrations, 0);
}

TEST(BalancerOptionsTest, HugeRunqueueMarginBlocks) {
  FakeEnv env(TwoCpus());
  BuildImbalance(env);
  EnergyLoadBalancer::Options options;
  options.rq_ratio_margin = 10.0;
  EnergyLoadBalancer balancer(options);
  EXPECT_EQ(balancer.BalanceSteps(1, env).energy_migrations, 0);
}

// Energy migrations of one pass for cpu1 (2 tasks averaging `local` W) from
// cpu0 (a 60 W running task plus one queued `hot` W task), with cpu0 the
// thermally hotter CPU.
int EnergyPulls(double local, double hot) {
  FakeEnv env(TwoCpus());
  env.AddRunningTask(60.0, 0);
  env.AddTask(hot, 0);
  env.AddRunningTask(local, 1);
  env.AddTask(local, 1);
  env.SetThermalPower(0, 55.0);
  env.SetThermalPower(1, 36.0);
  return EnergyLoadBalancer(EnergyLoadBalancer::Options{}).BalanceSteps(1, env).energy_migrations;
}

TEST(BalancerOptionsTest, MinTaskGainBoundary) {
  // kMinTaskGain = 1.02 against a 50 W local average: the pulled task must
  // exceed 51 W.
  EXPECT_EQ(EnergyPulls(50.0, 51.1), 1);
  EXPECT_EQ(EnergyPulls(50.0, 50.9), 0);
}

TEST(BalancerOptionsTest, MinGapShrinkBoundary) {
  // With the exchange modelled, the post-move gap over the old one is
  // (60 - hot) / (hot - 20) for a 40 W local average: 0.835 at 41.8 W, inside
  // kMinGapShrink = 0.85, and 0.869 at 41.4 W, outside. Both tasks clear
  // kMinTaskGain (40.8 W).
  EXPECT_EQ(EnergyPulls(40.0, 41.8), 1);
  EXPECT_EQ(EnergyPulls(40.0, 41.4), 0);
}

// Load-step pulls of one pass for cpu1 (one running task) from cpu0, whose
// queue is `longer_by` tasks longer; thermally even.
int LoadPulls(int longer_by) {
  FakeEnv env(TwoCpus());
  env.AddRunningTask(40.0, 0);
  for (int i = 0; i < longer_by; ++i) {
    env.AddTask(40.0, 0);
  }
  env.AddRunningTask(40.0, 1);
  env.SetThermalPower(0, 40.0);
  env.SetThermalPower(1, 40.0);
  return EnergyLoadBalancer(EnergyLoadBalancer::Options{}).BalanceSteps(1, env).load_migrations;
}

TEST(BalancerOptionsTest, MinLoadImbalanceBoundary) {
  // kMinLoadImbalance = 2: a queue two longer is pulled from, one longer is
  // tolerated.
  EXPECT_EQ(LoadPulls(2), 1);
  EXPECT_EQ(LoadPulls(1), 0);
}

TEST(BalancerOptionsTest, ResultTotalsAddUp) {
  FakeEnv env(TwoCpus());
  BuildImbalance(env);
  EnergyLoadBalancer balancer(EnergyLoadBalancer::Options{});
  const auto result = balancer.BalanceSteps(1, env);
  EXPECT_EQ(result.total(),
            result.energy_migrations + result.exchange_migrations + result.load_migrations);
  EXPECT_EQ(static_cast<std::int64_t>(result.total()), env.migration_count());
}

}  // namespace
}  // namespace eas
