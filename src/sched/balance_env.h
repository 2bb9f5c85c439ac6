// Environment interface the balancing policies operate against.
//
// Both the baseline load balancer (this module) and the paper's merged
// energy/load balancer plus hot task migration (src/core) are policies over
// the same machine state: runqueues, the domain hierarchy, and per-CPU power
// metrics. SimulationState (src/sim) is the simulator's one implementation;
// unit tests implement it with hand-built fixtures.

#ifndef SRC_SCHED_BALANCE_ENV_H_
#define SRC_SCHED_BALANCE_ENV_H_

#include <cstdint>

#include "src/sched/balance_cache.h"
#include "src/sched/runqueue.h"
#include "src/task/task.h"
#include "src/topo/cpu_topology.h"
#include "src/topo/sched_domain.h"

namespace eas {

class BalanceEnv {
 public:
  virtual ~BalanceEnv() = default;

  // Per-balance-pass cache of group aggregates. Policies call BeginPass(env)
  // on entry to Balance() and InvalidateCpus() after each migration they
  // perform; see src/sched/balance_cache.h for the protocol.
  BalanceAggregateCache& aggregate_cache() const { return aggregate_cache_; }

  // Version stamp of the balance metrics (runqueue contents, profiles,
  // thermal averages). While it holds still, group aggregates cached in one
  // pass stay valid for the next - migrations are reported separately via
  // the cache invalidation calls. The simulation advances it once per tick;
  // the default implementation never repeats a value, so hand-built test
  // envs (which mutate metrics at will between passes) keep the historical
  // invalidate-on-every-pass behaviour.
  virtual std::uint64_t metrics_version() const { return ++fallback_version_; }

  virtual const CpuTopology& topology() const = 0;
  virtual const DomainHierarchy& domains() const = 0;

  virtual Runqueue& runqueue(int cpu) = 0;
  virtual const Runqueue& runqueue(int cpu) const = 0;

  // --- energy metrics (Section 4.3) ---------------------------------------

  // Average energy profile of the CPU's tasks (W). Reflects migrations
  // immediately.
  virtual double RunqueuePower(int cpu) const = 0;

  // Exponential average of the CPU's past energy consumption, calibrated to
  // the thermal time constant (W). Follows temperature.
  virtual double ThermalPower(int cpu) const = 0;

  // Maximum sustainable power of the logical CPU (W).
  virtual double MaxPower(int cpu) const = 0;

  double RunqueuePowerRatio(int cpu) const { return RunqueuePower(cpu) / MaxPower(cpu); }
  double ThermalPowerRatio(int cpu) const { return ThermalPower(cpu) / MaxPower(cpu); }

  // --- mutation -------------------------------------------------------------

  // Migrates a task from `from`'s runqueue to `to`'s. Handles both queued
  // tasks and `from`'s current task (hot task migration); commits the task's
  // accounting period and applies the cache-warmup penalty. Returns false if
  // the task was not found on `from`.
  virtual bool MigrateTask(Task* task, int from, int to) = 0;

  // Whether the logical CPU accepts work. Policies and placement skip
  // offline CPUs as candidates; fault-free environments (and every test
  // fixture) stay all-online via this default.
  virtual bool CpuOnline(int /*cpu*/) const { return true; }

  // Total migrations performed so far (for the paper's migration counts).
  virtual std::int64_t migration_count() const = 0;

 private:
  mutable BalanceAggregateCache aggregate_cache_;
  mutable std::uint64_t fallback_version_ = 0;
};

}  // namespace eas

#endif  // SRC_SCHED_BALANCE_ENV_H_
