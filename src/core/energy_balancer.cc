#include "src/core/energy_balancer.h"

#include <cmath>

namespace eas {

EnergyLoadBalancer::EnergyLoadBalancer(const Options& options) : options_(options) {}

EnergyLoadBalancer::Result EnergyLoadBalancer::BalanceSteps(int cpu, BalanceEnv& env) const {
  env.aggregate_cache().BeginPass(env);
  return BalanceLevels(cpu, env, [&](const SchedDomain& domain, const CpuGroup& local_group) {
    Result level;
    if ((domain.flags & kDomainNoEnergyBalance) == 0) {
      level = EnergyStep(cpu, domain, local_group, env);
    }
    level.load_migrations = LoadStep(cpu, domain, local_group, env);
    return level;
  });
}

EnergyLoadBalancer::Result EnergyLoadBalancer::EnergyStep(int cpu, const SchedDomain& domain,
                                                          const CpuGroup& local_group,
                                                          BalanceEnv& env) const {
  Result result;

  BalanceAggregateCache& cache = env.aggregate_cache();
  auto group_ratio = [&](const CpuGroup& g) { return cache.RunqueuePowerRatio(g, env); };

  // 1. Group with the highest average runqueue power ratio.
  double hottest_ratio = 0.0;
  const CpuGroup* hottest_group = Greatest(domain.groups, group_ratio, &hottest_ratio);
  if (hottest_group == nullptr || hottest_group == &local_group) {
    return result;
  }

  // 2. Dual condition: hotter (slow thermal metric, hysteresis) AND consuming
  // more (fast runqueue metric, forbids over-pulling).
  const double local_rq_ratio = group_ratio(local_group);
  const double local_thermal_ratio = cache.ThermalPowerRatio(local_group, env);
  const double remote_thermal_ratio = cache.ThermalPowerRatio(*hottest_group, env);
  if (remote_thermal_ratio <= local_thermal_ratio + options_.thermal_ratio_margin ||
      hottest_ratio <= local_rq_ratio + options_.rq_ratio_margin) {
    return result;
  }

  // Hottest queue within the group.
  const int hottest_cpu =
      GreatestCpu(NarrowDeep(*hottest_group, env, group_ratio).cpus,
                  [&env](int c) { return env.RunqueuePowerRatio(c); });
  if (hottest_cpu < 0) {
    return result;
  }

  Runqueue& remote = env.runqueue(hottest_cpu);
  // Energy balancing levels queues that consist of *multiple* tasks
  // (Section 4); a single-task queue is hot task migration's business -
  // stealing its lone task would bounce work the migrator just placed.
  if (remote.nr_running() < 2) {
    return result;
  }
  Task* hot_task = remote.HottestQueued();
  if (hot_task == nullptr) {
    return result;
  }
  // 3. Pulling must reduce the imbalance: the task must be hotter than the
  // local queue's average power...
  const double task_power = hot_task->profile().power();
  if (task_power <= env.RunqueuePower(cpu) * kMinTaskGain) {
    return result;
  }
  // ...and the hypothetical post-migration ratio gap must shrink, otherwise
  // the move would only flip the imbalance (over-balancing). If the pull
  // would create a load imbalance, a cool task returns in exchange (step 4),
  // so the hypothesis models the full swap.
  {
    Runqueue& local = env.runqueue(cpu);
    const double n_local = static_cast<double>(local.nr_running());
    const double n_remote = static_cast<double>(remote.nr_running());
    const double local_sum = n_local > 0 ? env.RunqueuePower(cpu) * n_local : 0.0;
    const double remote_sum = env.RunqueuePower(hottest_cpu) * n_remote;

    const bool would_exchange = n_local + 1.0 > n_remote;
    double exchange_power = 0.0;
    if (would_exchange) {
      const Task* cool = local.CoolestQueued();
      exchange_power = cool != nullptr ? cool->profile().power() : 0.0;
    }

    double new_local_sum = local_sum + task_power;
    double new_local_n = n_local + 1.0;
    double new_remote_sum = remote_sum - task_power;
    double new_remote_n = n_remote - 1.0;
    if (would_exchange && exchange_power > 0.0) {
      new_local_sum -= exchange_power;
      new_local_n -= 1.0;
      new_remote_sum += exchange_power;
      new_remote_n += 1.0;
    }
    const double new_local_ratio = new_local_sum / new_local_n / env.MaxPower(cpu);
    const double new_remote_ratio =
        new_remote_n > 0.0 ? new_remote_sum / new_remote_n / env.MaxPower(hottest_cpu)
                           : env.RunqueuePowerRatio(hottest_cpu);
    const double old_gap =
        std::fabs(env.RunqueuePowerRatio(hottest_cpu) - env.RunqueuePowerRatio(cpu));
    const double new_gap = std::fabs(new_remote_ratio - new_local_ratio);
    if (new_gap >= old_gap * kMinGapShrink) {
      return result;
    }
  }
  if (!env.MigrateTask(hot_task, hottest_cpu, cpu)) {
    return result;
  }
  cache.InvalidateCpus(env, hottest_cpu, cpu);
  ++result.energy_migrations;

  // 4. Migrate a cool task back if the pull created a load imbalance.
  Runqueue& local = env.runqueue(cpu);
  if (local.nr_running() > remote.nr_running() + 1) {
    Task* cool_task = nullptr;
    for (Task* candidate : local.queued()) {
      if (candidate == hot_task) {
        continue;  // do not bounce the task we just pulled
      }
      if (cool_task == nullptr || candidate->profile().power() < cool_task->profile().power()) {
        cool_task = candidate;
      }
    }
    if (cool_task != nullptr && env.MigrateTask(cool_task, cpu, hottest_cpu)) {
      cache.InvalidateCpus(env, cpu, hottest_cpu);
      ++result.exchange_migrations;
    }
  }
  return result;
}

int EnergyLoadBalancer::LoadStep(int cpu, const SchedDomain& domain, const CpuGroup& local_group,
                                 BalanceEnv& env) const {
  BalanceAggregateCache& cache = env.aggregate_cache();

  const CpuGroup* busiest_group =
      Greatest(domain.groups, [&](const CpuGroup& g) { return cache.Load(g, env); });
  if (busiest_group == nullptr || busiest_group == &local_group) {
    return 0;
  }

  // Energy-aware task selection: pull heat from hotter groups, coolness from
  // cooler groups, so the load balancing does not create energy imbalances.
  const double local_thermal = cache.ThermalPowerRatio(local_group, env);
  const double remote_thermal = cache.ThermalPowerRatio(*busiest_group, env);
  PullPreference preference = PullPreference::kAny;
  if (remote_thermal > local_thermal + options_.thermal_ratio_margin) {
    preference = PullPreference::kHot;
  } else if (remote_thermal < local_thermal - options_.thermal_ratio_margin) {
    preference = PullPreference::kCool;
  }

  return LoadBalancer::PullFromBusiest(cpu, *busiest_group, preference, env);
}

}  // namespace eas
