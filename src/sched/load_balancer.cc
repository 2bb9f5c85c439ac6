#include "src/sched/load_balancer.h"

namespace eas {

double LoadBalancer::GroupLoad(const CpuGroup& group, const BalanceEnv& env) {
  if (group.cpus.empty()) {
    return 0.0;
  }
  std::size_t total = 0;
  for (int cpu : group.cpus) {
    total += env.runqueue(cpu).nr_running();
  }
  return static_cast<double>(total) / static_cast<double>(group.cpus.size());
}

Task* LoadBalancer::PickTask(const Runqueue& queue, PullPreference preference) {
  switch (preference) {
    case PullPreference::kAny:
      return queue.queued().empty() ? nullptr : queue.queued().front();
    case PullPreference::kHot:
      return queue.HottestQueued();
    case PullPreference::kCool:
      return queue.CoolestQueued();
  }
  return nullptr;
}

int LoadBalancer::PullFromBusiest(int cpu, const CpuGroup& group, PullPreference preference,
                                  BalanceEnv& env) {
  BalanceAggregateCache& cache = env.aggregate_cache();
  auto load = [&](const CpuGroup& g) { return cache.Load(g, env); };
  auto queue_length = [&env](int c) { return env.runqueue(c).nr_running(); };
  int pulled = 0;
  while (true) {
    Runqueue& local = env.runqueue(cpu);
    const int busiest_cpu = GreatestCpu(NarrowDeep(group, env, load).cpus, queue_length);
    if (busiest_cpu < 0) {
      break;
    }
    Runqueue& busiest = env.runqueue(busiest_cpu);
    if (busiest.nr_running() < local.nr_running() + kMinLoadImbalance) {
      break;
    }
    Task* task = PickTask(busiest, preference);
    if (task == nullptr) {
      break;  // only the running task is left; cannot pull it
    }
    if (!env.MigrateTask(task, busiest_cpu, cpu)) {
      break;
    }
    cache.InvalidateCpus(env, busiest_cpu, cpu);
    ++pulled;
  }
  return pulled;
}

int LoadBalancer::Balance(int cpu, BalanceEnv& env) {
  BalanceAggregateCache& cache = env.aggregate_cache();
  cache.BeginPass(env);
  return BalanceLevels(cpu, env, [&](const SchedDomain& domain, const CpuGroup& local_group) {
    const CpuGroup* busiest_group =
        Greatest(domain.groups, [&](const CpuGroup& g) { return cache.Load(g, env); });
    if (busiest_group == nullptr || busiest_group == &local_group) {
      return 0;  // nothing to pull at this level; ascend
    }
    return PullFromBusiest(cpu, *busiest_group, PullPreference::kAny, env);
  });
}

}  // namespace eas
