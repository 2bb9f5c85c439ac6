// BalanceAggregateCache: group aggregates are memoized within a pass,
// recomputed after BeginPass(), and always equal to the scans
// they replace.

#include "src/sched/balance_cache.h"

#include <gtest/gtest.h>

#include "src/sched/load_balancer.h"
#include "tests/testing/fake_env.h"

namespace eas {
namespace {

const CpuGroup& FirstRemoteGroup(const BalanceEnv& env, int cpu) {
  const SchedDomain* domain = env.domains().DomainsFor(cpu).back();
  for (const CpuGroup& group : domain->groups) {
    if (domain->GroupOf(cpu) != &group) {
      return group;
    }
  }
  return domain->groups.front();
}

TEST(BalanceCacheTest, MatchesDirectScans) {
  FakeEnv env(CpuTopology::PaperXSeries445(false), 40.0);
  env.AddTask(50.0, 0);
  env.AddTask(30.0, 4);
  env.AddTask(44.0, 4);
  env.SetThermalPower(4, 35.0);

  BalanceAggregateCache& cache = env.aggregate_cache();
  cache.BeginPass();
  for (const SchedDomain* domain : env.domains().DomainsFor(0)) {
    for (const CpuGroup& group : domain->groups) {
      EXPECT_DOUBLE_EQ(cache.Load(group, env), LoadBalancer::GroupLoad(group, env));
      double rq_sum = 0.0;
      double thermal_sum = 0.0;
      for (int cpu : group.cpus) {
        rq_sum += env.RunqueuePowerRatio(cpu);
        thermal_sum += env.ThermalPowerRatio(cpu);
      }
      const double n = static_cast<double>(group.cpus.size());
      EXPECT_DOUBLE_EQ(cache.RunqueuePowerRatio(group, env), rq_sum / n);
      EXPECT_DOUBLE_EQ(cache.ThermalPowerRatio(group, env), thermal_sum / n);
    }
  }
}

TEST(BalanceCacheTest, MemoizesUntilInvalidated) {
  FakeEnv env(CpuTopology::PaperXSeries445(false), 40.0);
  const CpuGroup& group = FirstRemoteGroup(env, 0);
  const int remote_cpu = group.cpus.front();

  BalanceAggregateCache& cache = env.aggregate_cache();
  cache.BeginPass();
  const double before = cache.Load(group, env);

  env.AddTask(50.0, remote_cpu);
  // Within the pass the cached value holds (the mutation did not go through
  // a migration, so nothing invalidated it)...
  EXPECT_DOUBLE_EQ(cache.Load(group, env), before);
  // ...and a fresh pass recomputes from the live runqueues.
  cache.BeginPass();
  EXPECT_DOUBLE_EQ(cache.Load(group, env), LoadBalancer::GroupLoad(group, env));
  EXPECT_GT(cache.Load(group, env), before);
}

TEST(BalanceCacheTest, BeginPassStartsFresh) {
  FakeEnv env(CpuTopology::PaperXSeries445(false), 40.0);
  const CpuGroup& group = FirstRemoteGroup(env, 0);

  BalanceAggregateCache& cache = env.aggregate_cache();
  cache.BeginPass();
  const double idle_ratio = cache.ThermalPowerRatio(group, env);

  env.SetThermalPower(group.cpus.front(), 39.0);
  cache.BeginPass();
  EXPECT_GT(cache.ThermalPowerRatio(group, env), idle_ratio);
}

}  // namespace
}  // namespace eas
