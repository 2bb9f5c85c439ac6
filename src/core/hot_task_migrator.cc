#include "src/core/hot_task_migrator.h"

namespace eas {

bool HotTaskMigrator::ShouldMigrate(int cpu, const BalanceEnv& env) const {
  const Runqueue& rq = env.runqueue(cpu);
  if (rq.nr_running() != 1 || rq.current() == nullptr) {
    return false;
  }
  // Only physical packages overheat: on SMT, trigger on the sum of the
  // sibling thermal powers against the package max (= sum of logical maxes).
  double thermal_sum = 0.0;
  double max_sum = 0.0;
  for (int sibling : env.topology().SiblingsOf(cpu)) {
    thermal_sum += env.ThermalPower(sibling);
    max_sum += env.MaxPower(sibling);
  }
  return thermal_sum > max_sum - kTriggerMarginWatts;
}

HotTaskMigrator::Result HotTaskMigrator::Check(int cpu, BalanceEnv& env) const {
  Result result;
  if (!ShouldMigrate(cpu, env)) {
    return result;
  }

  Task* hot_task = env.runqueue(cpu).current();
  const CpuTopology& topo = env.topology();

  // Coolness is a *package* property: an idle logical CPU on a hot package
  // is no refuge, its die is the problem (Section 4.7).
  auto package_thermal = [&](int logical) {
    double sum = 0.0;
    for (int sibling : topo.SiblingsOf(logical)) {
      sum += env.ThermalPower(sibling);
    }
    return sum;
  };
  const double source_thermal = package_thermal(cpu);

  for (const DomainCursor& cursor : env.domains().StackFor(cpu)) {
    const SchedDomain* domain = cursor.domain;
    if ((domain->flags & kDomainNoEnergyBalance) != 0) {
      // SMT level: migrating to a sibling on the same die does not help.
      continue;
    }

    // Coolest candidate within the domain (never on the source's package);
    // within the coolest package, prefer the coolest logical CPU.
    int coolest = -1;
    double coolest_package = 0.0;
    for (int candidate : domain->cpus) {
      if (candidate == cpu || topo.AreSiblings(candidate, cpu) || !env.CpuOnline(candidate)) {
        continue;
      }
      const double pkg = package_thermal(candidate);
      if (coolest < 0 || pkg < coolest_package ||
          (pkg == coolest_package && env.ThermalPower(candidate) < env.ThermalPower(coolest))) {
        coolest = candidate;
        coolest_package = pkg;
      }
    }
    if (coolest < 0) {
      continue;
    }
    // Must be considerably cooler, or the task would bounce right back.
    if (source_thermal - coolest_package < kMinThermalDiffWatts) {
      continue;  // ascend: maybe a higher-level domain has a cooler CPU
    }

    Runqueue& dest = env.runqueue(coolest);
    if (dest.Idle()) {
      if (env.MigrateTask(hot_task, cpu, coolest)) {
        env.aggregate_cache().InvalidateCpus(env, cpu, coolest);
        result.migrated = true;
        result.destination = coolest;
      }
      return result;
    }

    // Exchange with a CPU running a single cool task (no load imbalance).
    Task* dest_task = dest.current();
    if (dest.nr_running() == 1 && dest_task != nullptr &&
        dest_task->profile().power() + kExchangeMarginWatts < hot_task->profile().power()) {
      // The two halves are reported independently: if the return exchange
      // fails, the hot task still moved and the statistics must say so.
      if (env.MigrateTask(hot_task, cpu, coolest)) {
        result.migrated = true;
        result.destination = coolest;
        result.exchanged = env.MigrateTask(dest_task, coolest, cpu);
        env.aggregate_cache().InvalidateCpus(env, cpu, coolest);
      }
      return result;
    }
    // Destination busy with a hot task: ascend one level.
  }
  return result;
}

}  // namespace eas
