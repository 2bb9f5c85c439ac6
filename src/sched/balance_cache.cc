#include "src/sched/balance_cache.h"

#include "src/sched/balance_env.h"

namespace eas {

void BalanceAggregateCache::BeginPass(const BalanceEnv& env) {
  const std::uint64_t version = env.metrics_version();
  if (!has_version_ || version != last_version_) {
    ++epoch_;
    last_version_ = version;
    has_version_ = true;
  }
  deep_rollups_ = env.domains().num_levels() > 3;
}

void BalanceAggregateCache::InvalidateCpus(const BalanceEnv& env, int from, int to) {
  for (int cpu : {from, to}) {
    for (const DomainCursor& cursor : env.domains().StackFor(cpu)) {
      if (Entry* entry = EntryFor(*cursor.group)) {
        entry->rq.epoch = 0;
        entry->thermal.epoch = 0;
        entry->load.epoch = 0;
      }
    }
  }
}

BalanceAggregateCache::Entry* BalanceAggregateCache::EntryFor(const CpuGroup& group) {
  if (group.index < 0) {
    return nullptr;
  }
  const std::size_t index = static_cast<std::size_t>(group.index);
  if (index >= entries_.size()) {
    // Fresh slots carry epoch 0, which never matches epoch_ (it starts at 1
    // and only grows), so grown slots read as stale.
    entries_.resize(index + 1);
  }
  return &entries_[index];
}

template <typename V, typename Metric>
V BalanceAggregateCache::Sum(const CpuGroup& group, const BalanceEnv& env, Slot<V> Entry::*slot,
                             Metric metric, bool rollup) {
  if (const Entry* entry = EntryFor(group); entry != nullptr && (entry->*slot).epoch == epoch_) {
    return (entry->*slot).value;
  }
  V sum{};
  if (rollup && group.child_domain >= 0) {
    const SchedDomain& child = env.domains().domains()[static_cast<std::size_t>(group.child_domain)];
    for (const CpuGroup& sub : child.groups) {
      sum += Sum(sub, env, slot, metric, rollup);  // may grow entries_; no references held
    }
  } else {
    for (int cpu : group.cpus) {
      sum += metric(cpu);
    }
  }
  if (Entry* entry = EntryFor(group)) {
    entry->*slot = Slot<V>{sum, epoch_};
  }
  return sum;
}

template <typename V, typename Metric>
double BalanceAggregateCache::Average(const CpuGroup& group, const BalanceEnv& env,
                                      Slot<V> Entry::*slot, Metric metric, bool rollup) {
  if (group.cpus.empty()) {
    return 0.0;
  }
  return static_cast<double>(Sum(group, env, slot, metric, rollup)) /
         static_cast<double>(group.cpus.size());
}

double BalanceAggregateCache::RunqueuePowerRatio(const CpuGroup& group, const BalanceEnv& env) {
  return Average(
      group, env, &Entry::rq, [&env](int cpu) { return env.RunqueuePowerRatio(cpu); },
      deep_rollups_);
}

double BalanceAggregateCache::ThermalPowerRatio(const CpuGroup& group, const BalanceEnv& env) {
  return Average(
      group, env, &Entry::thermal, [&env](int cpu) { return env.ThermalPowerRatio(cpu); },
      deep_rollups_);
}

double BalanceAggregateCache::Load(const CpuGroup& group, const BalanceEnv& env) {
  // Integer addition is associative, so the load rollup is exact at any
  // depth and needs no deep-hierarchy gate - only an existing child link.
  return Average(
      group, env, &Entry::load, [&env](int cpu) { return env.runqueue(cpu).nr_running(); },
      true);
}

}  // namespace eas
