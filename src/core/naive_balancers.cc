#include "src/core/naive_balancers.h"

#include "src/sched/load_balancer.h"

namespace eas {
namespace {

// Shared skeleton: pull the hottest queued task from the group that `metric`
// declares hottest, then run a plain load step. No dual condition, no
// improvement hypothesis - that is the point of these strawmen. Their group
// metric is the flat, uncached GroupAverage.
template <typename Metric>
int NaiveBalance(int cpu, BalanceEnv& env, Metric&& metric) {
  auto group_average = [&](const CpuGroup& g) { return LoadBalancer::GroupAverage(g, metric); };
  return BalanceLevels(cpu, env, [&](const SchedDomain& domain, const CpuGroup& local_group) {
    int migrated = 0;
    const CpuGroup* hottest_group = (domain.flags & kDomainNoEnergyBalance) == 0
                                        ? Greatest(domain.groups, group_average)
                                        : nullptr;
    if (hottest_group != nullptr && hottest_group != &local_group &&
        group_average(*hottest_group) > group_average(local_group) + kNaiveRatioMargin) {
      const int hottest_cpu = GreatestCpu(hottest_group->cpus, metric);
      if (hottest_cpu >= 0 && env.runqueue(hottest_cpu).nr_running() >= 2) {
        Task* task = env.runqueue(hottest_cpu).HottestQueued();
        if (task != nullptr && env.MigrateTask(task, hottest_cpu, cpu)) {
          env.aggregate_cache().InvalidateCpus(env, hottest_cpu, cpu);
          ++migrated;
          // Keep load sane, as the real algorithm does.
          Runqueue& local = env.runqueue(cpu);
          Runqueue& remote = env.runqueue(hottest_cpu);
          if (local.nr_running() > remote.nr_running() + 1) {
            Task* cool = local.CoolestQueued();
            if (cool != nullptr && cool != task && env.MigrateTask(cool, cpu, hottest_cpu)) {
              env.aggregate_cache().InvalidateCpus(env, cpu, hottest_cpu);
              ++migrated;
            }
          }
        }
      }
    }
    // Plain load step: a whole baseline pass.
    return migrated + LoadBalancer().Balance(cpu, env);
  });
}

}  // namespace

int PowerOnlyBalancer::Balance(int cpu, BalanceEnv& env) {
  return NaiveBalance(cpu, env, [&env](int c) { return env.RunqueuePowerRatio(c); });
}

int TemperatureOnlyBalancer::Balance(int cpu, BalanceEnv& env) {
  return NaiveBalance(cpu, env, [&env](int c) { return env.ThermalPowerRatio(c); });
}

}  // namespace eas
