#include "src/core/energy_balancer.h"

#include <gtest/gtest.h>

#include "tests/testing/fake_env.h"

namespace eas {
namespace {

// Two physical CPUs, no SMT, one node.
CpuTopology TwoCpus() { return CpuTopology(1, 2, 1); }

TEST(EnergyBalancerTest, PullsHeatFromHotterCpu) {
  FakeEnv env(TwoCpus());
  // cpu0: two hot tasks; cpu1: two cool tasks. Thermal state agrees.
  env.AddRunningTask(61.0, 0);
  env.AddTask(61.0, 0);
  env.AddRunningTask(38.0, 1);
  env.AddTask(38.0, 1);
  env.SetThermalPower(0, 55.0);
  env.SetThermalPower(1, 36.0);

  EnergyLoadBalancer balancer(EnergyLoadBalancer::Options{});
  const auto result = balancer.BalanceSteps(1, env);
  EXPECT_EQ(result.energy_migrations, 1);
  // Load stayed balanced: the exchange sent a cool task back.
  EXPECT_EQ(result.exchange_migrations, 1);
  EXPECT_EQ(env.runqueue(0).nr_running(), 2u);
  EXPECT_EQ(env.runqueue(1).nr_running(), 2u);
  // Power is now mixed on both queues.
  EXPECT_NEAR(env.RunqueuePower(0), env.RunqueuePower(1), 1.0);
}

TEST(EnergyBalancerTest, HysteresisBlocksWhenRemoteNotThermallyHotter) {
  FakeEnv env(TwoCpus());
  env.AddRunningTask(61.0, 0);
  env.AddTask(61.0, 0);
  env.AddRunningTask(38.0, 1);
  env.AddTask(38.0, 1);
  // Runqueue power says cpu0 is hotter, but thermal power says otherwise
  // (cpu0 just got these tasks; the die is still cool).
  env.SetThermalPower(0, 30.0);
  env.SetThermalPower(1, 36.0);

  EnergyLoadBalancer balancer(EnergyLoadBalancer::Options{});
  const auto result = balancer.BalanceSteps(1, env);
  EXPECT_EQ(result.energy_migrations, 0);
}

TEST(EnergyBalancerTest, RunqueueConditionBlocksOverPulling) {
  FakeEnv env(TwoCpus());
  // cpu0 thermally hot but its queue is already cool (the hot task left):
  // pulling more would over-balance.
  env.AddRunningTask(38.0, 0);
  env.AddTask(38.0, 0);
  env.AddRunningTask(40.0, 1);
  env.AddTask(40.0, 1);
  env.SetThermalPower(0, 55.0);
  env.SetThermalPower(1, 36.0);

  EnergyLoadBalancer balancer(EnergyLoadBalancer::Options{});
  const auto result = balancer.BalanceSteps(1, env);
  EXPECT_EQ(result.energy_migrations, 0);
}

TEST(EnergyBalancerTest, NoActionWhenBalanced) {
  FakeEnv env(TwoCpus());
  env.AddRunningTask(50.0, 0);
  env.AddTask(50.0, 0);
  env.AddRunningTask(50.0, 1);
  env.AddTask(50.0, 1);
  env.SetThermalPower(0, 48.0);
  env.SetThermalPower(1, 48.0);

  EnergyLoadBalancer balancer(EnergyLoadBalancer::Options{});
  EXPECT_EQ(balancer.Balance(0, env), 0);
  EXPECT_EQ(balancer.Balance(1, env), 0);
}

TEST(EnergyBalancerTest, NoPingPongAfterBalancing) {
  // After one successful energy balance, repeating the pass in both
  // directions must not migrate anything further (the dual-metric condition
  // is the anti-ping-pong mechanism).
  FakeEnv env(TwoCpus());
  env.AddRunningTask(61.0, 0);
  env.AddTask(61.0, 0);
  env.AddRunningTask(38.0, 1);
  env.AddTask(38.0, 1);
  env.SetThermalPower(0, 55.0);
  env.SetThermalPower(1, 36.0);

  EnergyLoadBalancer balancer(EnergyLoadBalancer::Options{});
  EXPECT_GT(balancer.Balance(1, env), 0);
  const std::int64_t after_first = env.migration_count();
  for (int round = 0; round < 5; ++round) {
    balancer.Balance(0, env);
    balancer.Balance(1, env);
  }
  EXPECT_EQ(env.migration_count(), after_first);
}

TEST(EnergyBalancerTest, RespectsMaxPowerRatios) {
  // cpu1 has a lower max power (worse cooling): the same wattage means a
  // higher *ratio* there, so its hot task must flow to the better-cooled
  // cpu0 even though cpu0's absolute runqueue power is already higher.
  FakeEnv env(TwoCpus());
  env.SetMaxPower(0, 66.0);
  env.SetMaxPower(1, 44.0);
  env.AddRunningTask(45.0, 0);
  env.AddTask(45.0, 0);
  env.AddRunningTask(55.0, 1);
  env.AddTask(55.0, 1);
  env.SetThermalPower(0, 45.0);  // ratio 0.68
  env.SetThermalPower(1, 50.0);  // ratio 1.14

  EnergyLoadBalancer balancer(EnergyLoadBalancer::Options{});
  const auto result = balancer.BalanceSteps(0, env);
  EXPECT_EQ(result.energy_migrations, 1);
}

TEST(EnergyBalancerTest, LoadStepStillBalancesLoad) {
  FakeEnv env(TwoCpus());
  env.AddRunningTask(50.0, 0);
  env.AddTask(50.0, 0);
  env.AddTask(50.0, 0);
  env.AddTask(50.0, 0);
  env.SetThermalPower(0, 50.0);
  env.SetThermalPower(1, 50.0);

  EnergyLoadBalancer balancer(EnergyLoadBalancer::Options{});
  const auto result = balancer.BalanceSteps(1, env);
  EXPECT_GE(result.load_migrations, 1);
}

TEST(EnergyBalancerTest, LoadStepPullsCoolTaskFromCoolerGroup) {
  FakeEnv env(TwoCpus());
  env.AddRunningTask(61.0, 0);
  Task* cool = env.AddTask(38.0, 0);
  env.AddTask(61.0, 0);
  env.AddTask(38.0, 0);
  // cpu1 is hot, cpu0 cool: when cpu1 pulls for load reasons it must take a
  // cool task to preserve energy balance.
  env.SetThermalPower(0, 30.0);
  env.SetThermalPower(1, 55.0);

  EnergyLoadBalancer balancer(EnergyLoadBalancer::Options{});
  const auto result = balancer.BalanceSteps(1, env);
  ASSERT_GE(result.load_migrations, 1);
  // The first pulled task should be the coolest queued one.
  bool found = false;
  for (const Task* task : env.runqueue(1).queued()) {
    if (task == cool) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(EnergyBalancerTest, SkipsEnergyStepInSmtDomain) {
  // One physical package, two SMT threads: the only domain is flagged
  // kDomainNoEnergyBalance, so only load balancing may happen.
  FakeEnv env(CpuTopology(1, 1, 2));
  env.AddRunningTask(61.0, 0);
  env.AddTask(61.0, 0);
  env.AddRunningTask(38.0, 1);
  env.AddTask(38.0, 1);
  env.SetThermalPower(0, 55.0);
  env.SetThermalPower(1, 30.0);

  EnergyLoadBalancer balancer(EnergyLoadBalancer::Options{});
  const auto result = balancer.BalanceSteps(1, env);
  EXPECT_EQ(result.energy_migrations, 0);
  EXPECT_EQ(result.load_migrations, 0);  // load is balanced
}

TEST(EnergyBalancerTest, EnergyBalancesAcrossPackagesOnSmtMachine) {
  // Two packages x 2 threads: energy balancing skips the SMT level but must
  // work at the node level between packages.
  FakeEnv env(CpuTopology(1, 2, 2));
  // Package 0 (cpus 0, 2): hot tasks. Package 1 (cpus 1, 3): cool tasks.
  env.AddRunningTask(61.0, 0);
  env.AddTask(61.0, 0);
  env.AddRunningTask(61.0, 2);
  env.AddTask(61.0, 2);
  env.AddRunningTask(38.0, 1);
  env.AddTask(38.0, 1);
  env.AddRunningTask(38.0, 3);
  env.AddTask(38.0, 3);
  for (int cpu : {0, 2}) {
    env.SetThermalPower(cpu, 28.0);  // per-logical (30 W max each)
  }
  for (int cpu : {1, 3}) {
    env.SetThermalPower(cpu, 18.0);
  }
  EnergyLoadBalancer balancer(EnergyLoadBalancer::Options{});
  const auto result = balancer.BalanceSteps(1, env);
  EXPECT_EQ(result.energy_migrations, 1);
}

TEST(EnergyBalancerTest, GroupAverageHelper) {
  FakeEnv env(TwoCpus());
  env.SetThermalPower(0, 10.0);
  env.SetThermalPower(1, 30.0);
  CpuGroup group;
  group.cpus = {0, 1};
  const double avg = LoadBalancer::GroupAverage(
      group, [&env](int cpu) { return env.ThermalPower(cpu); });
  EXPECT_DOUBLE_EQ(avg, 20.0);
}

}  // namespace
}  // namespace eas
