#include "src/core/naive_balancers.h"

#include <gtest/gtest.h>

#include "src/core/energy_balancer.h"
#include "tests/testing/fake_env.h"

namespace eas {
namespace {

CpuTopology TwoCpus() { return CpuTopology(1, 2, 1); }

TEST(PowerOnlyBalancerTest, PullsOnRunqueuePowerAlone) {
  FakeEnv env(TwoCpus());
  env.AddRunningTask(61.0, 0);
  env.AddTask(61.0, 0);
  env.AddRunningTask(38.0, 1);
  env.AddTask(38.0, 1);
  // Thermal power says the remote die is NOT hotter - the real balancer
  // would wait; the power-only strawman pulls anyway.
  env.SetThermalPower(0, 20.0);
  env.SetThermalPower(1, 36.0);
  PowerOnlyBalancer balancer;
  EXPECT_GE(balancer.Balance(1, env), 1);
}

TEST(PowerOnlyBalancerTest, PingPongsWhereDualMetricIsQuiet) {
  // Construct the oscillation: equalish queues where each pull flips the
  // runqueue-power comparison. The strawman keeps trading tasks; the
  // paper's balancer performs the one useful swap and stops.
  auto build = [](FakeEnv& env) {
    env.AddRunningTask(61.0, 0);
    env.AddTask(55.0, 0);
    env.AddRunningTask(38.0, 1);
    env.AddTask(40.0, 1);
    env.SetThermalPower(0, 48.0);
    env.SetThermalPower(1, 47.0);  // thermally almost identical
  };

  FakeEnv naive_env(TwoCpus());
  build(naive_env);
  PowerOnlyBalancer naive;
  for (int round = 0; round < 10; ++round) {
    naive.Balance(0, naive_env);
    naive.Balance(1, naive_env);
  }

  FakeEnv paper_env(TwoCpus());
  build(paper_env);
  EnergyLoadBalancer paper(EnergyLoadBalancer::Options{});
  for (int round = 0; round < 10; ++round) {
    paper.Balance(0, paper_env);
    paper.Balance(1, paper_env);
  }

  EXPECT_GT(naive_env.migration_count(), paper_env.migration_count());
}

TEST(TemperatureOnlyBalancerTest, OverBalancesOnStaleHeat) {
  // The hot task already left cpu0, but the die is still warm. The real
  // balancer's runqueue condition blocks further pulls; the temperature-only
  // strawman keeps stealing tasks from the (now cool) queue.
  FakeEnv env(TwoCpus());
  env.AddRunningTask(38.0, 0);
  env.AddTask(38.0, 0);
  env.AddRunningTask(40.0, 1);
  env.AddTask(40.0, 1);
  env.SetThermalPower(0, 55.0);  // stale heat
  env.SetThermalPower(1, 30.0);

  TemperatureOnlyBalancer naive;
  const int migrated = naive.Balance(1, env);
  EXPECT_GE(migrated, 1) << "strawman should chase the stale temperature";

  FakeEnv paper_env(TwoCpus());
  paper_env.AddRunningTask(38.0, 0);
  paper_env.AddTask(38.0, 0);
  paper_env.AddRunningTask(40.0, 1);
  paper_env.AddTask(40.0, 1);
  paper_env.SetThermalPower(0, 55.0);
  paper_env.SetThermalPower(1, 30.0);
  EnergyLoadBalancer paper(EnergyLoadBalancer::Options{});
  EXPECT_EQ(paper.BalanceSteps(1, paper_env).energy_migrations, 0)
      << "the dual-metric design must not over-balance";
}

TEST(NaiveBalancersTest, LeaveSingleTaskQueuesAlone) {
  FakeEnv env(TwoCpus());
  env.AddRunningTask(61.0, 0);  // one running task, nothing queued
  env.SetThermalPower(0, 55.0);
  env.SetThermalPower(1, 14.0);
  PowerOnlyBalancer power_only;
  TemperatureOnlyBalancer temp_only;
  EXPECT_EQ(power_only.Balance(1, env), 0);
  EXPECT_EQ(temp_only.Balance(1, env), 0);
}

TEST(NaiveBalancersTest, StillBalanceLoad) {
  FakeEnv env(TwoCpus());
  env.AddRunningTask(40.0, 0);
  env.AddTask(40.0, 0);
  env.AddTask(40.0, 0);
  env.AddTask(40.0, 0);
  env.SetThermalPower(0, 40.0);
  env.SetThermalPower(1, 40.0);
  PowerOnlyBalancer balancer;
  EXPECT_GE(balancer.Balance(1, env), 1);
  EXPECT_LE(env.runqueue(0).nr_running(), 3u);
}

}  // namespace
}  // namespace eas
