#include "src/core/naive_balancers.h"

#include "src/sched/load_balancer.h"

namespace eas {
namespace {

// Shared skeleton: pull the hottest queued task from the group that `metric`
// declares hottest, then run a plain load step. No dual condition, no
// improvement hypothesis - that is the point of these strawmen.
template <typename Metric>
int NaiveBalance(int cpu, BalanceEnv& env, Metric&& metric, double margin,
                 std::size_t min_load_imbalance) {
  int migrated = 0;
  for (const DomainCursor& cursor : env.domains().StackFor(cpu)) {
    const SchedDomain* domain = cursor.domain;
    const CpuGroup* local_group = cursor.group;
    if (local_group == nullptr) {
      continue;
    }

    if ((domain->flags & kDomainNoEnergyBalance) == 0) {
      const CpuGroup* hottest_group = nullptr;
      double hottest = 0.0;
      for (const auto& group : domain->groups) {
        const double value = LoadBalancer::GroupAverage(group, metric);
        if (hottest_group == nullptr || value > hottest) {
          hottest_group = &group;
          hottest = value;
        }
      }
      if (hottest_group != nullptr && hottest_group != local_group &&
          hottest > LoadBalancer::GroupAverage(*local_group, metric) + margin) {
        int hottest_cpu = -1;
        double hottest_value = 0.0;
        for (int remote : hottest_group->cpus) {
          const double value = metric(remote);
          if (hottest_cpu < 0 || value > hottest_value) {
            hottest_cpu = remote;
            hottest_value = value;
          }
        }
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
              if (cool != nullptr && cool != task &&
                  env.MigrateTask(cool, cpu, hottest_cpu)) {
                env.aggregate_cache().InvalidateCpus(env, cpu, hottest_cpu);
                ++migrated;
              }
            }
          }
        }
      }
    }

    // Plain load step.
    LoadBalancer::Options load_options;
    load_options.min_imbalance = min_load_imbalance;
    migrated += LoadBalancer(load_options).Balance(cpu, env);

    if (migrated > 0) {
      break;
    }
  }
  return migrated;
}

}  // namespace

PowerOnlyBalancer::PowerOnlyBalancer() : PowerOnlyBalancer(Options{}) {}
PowerOnlyBalancer::PowerOnlyBalancer(const Options& options) : options_(options) {}

int PowerOnlyBalancer::Balance(int cpu, BalanceEnv& env) const {
  return NaiveBalance(
      cpu, env, [&env](int c) { return env.RunqueuePowerRatio(c); }, options_.ratio_margin,
      options_.min_load_imbalance);
}

TemperatureOnlyBalancer::TemperatureOnlyBalancer() : TemperatureOnlyBalancer(Options{}) {}
TemperatureOnlyBalancer::TemperatureOnlyBalancer(const Options& options) : options_(options) {}

int TemperatureOnlyBalancer::Balance(int cpu, BalanceEnv& env) const {
  return NaiveBalance(
      cpu, env, [&env](int c) { return env.ThermalPowerRatio(c); }, options_.ratio_margin,
      options_.min_load_imbalance);
}

}  // namespace eas
