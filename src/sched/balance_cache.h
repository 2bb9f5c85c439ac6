// Per-balance-pass cache of CPU-group aggregates, with per-domain rollups.
//
// One balancing pass (a single BalancePolicy::Balance call) walks the domain
// hierarchy bottom-up and repeatedly asks for the same group-level averages:
// runqueue power ratio, thermal power ratio and load (nr_running). Those
// aggregates only change when task execution advances the clock or a
// migration moves a task, so the balancers compute them once through this
// cache instead of rescanning every group's CPUs at every domain level.
//
// Protocol: a balancer calls BeginPass(env) on entry to Balance(). That is a
// no-op while env.metrics_version() is unchanged (several CPUs balancing
// within one tick share the aggregates) and drops everything once the
// version moves (task execution mutated the metrics). After a migration the
// balancer calls InvalidateCpus(env, from, to) - only the group entries on
// the two CPUs' domain paths can have changed, everything else stays warm.
// The argument-less BeginPass() drops everything unconditionally.
//
// Values are computed lazily per group and per metric, all three through one
// memoized sum. On classic <= 3-level hierarchies the summation is exactly
// the flat scan it replaces, so a cached pass is bit-identical to an
// uncached one. On deeper hierarchies the double-valued metrics roll up the
// child-domain links instead (a group's sum is the sum of its child domain's
// group sums), making a cold group O(fanout) on warm children instead of
// O(all CPUs below it); integer load totals roll up at every depth since
// integer addition is associative.

#ifndef SRC_SCHED_BALANCE_CACHE_H_
#define SRC_SCHED_BALANCE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/topo/sched_domain.h"

namespace eas {

class BalanceEnv;

class BalanceAggregateCache {
 public:
  // Starts a pass: drops every cached value iff env.metrics_version() moved
  // since the previous pass, and latches whether the hierarchy is deep
  // enough for double-metric rollups.
  void BeginPass(const BalanceEnv& env);

  // Unconditional pass start: every cached value is stale from here on (also
  // the call after a mutation whose footprint is unknown).
  void BeginPass() { ++epoch_; has_version_ = false; }

  // Drops the group entries on `from`'s and `to`'s domain paths (their
  // epochs reset, so the slots read as stale) - the only aggregates a
  // migration between the two can change. Metrics of every other CPU are
  // untouched by a migration, so the surviving entries still equal a fresh
  // recompute bit for bit.
  void InvalidateCpus(const BalanceEnv& env, int from, int to);

  // Average RunqueuePowerRatio over `group`'s CPUs (0 for an empty group).
  double RunqueuePowerRatio(const CpuGroup& group, const BalanceEnv& env);

  // Average ThermalPowerRatio over `group`'s CPUs (0 for an empty group).
  double ThermalPowerRatio(const CpuGroup& group, const BalanceEnv& env);

  // Average nr_running over `group`'s CPUs (0 for an empty group) - the
  // LoadBalancer::GroupLoad metric.
  double Load(const CpuGroup& group, const BalanceEnv& env);

 private:
  // One metric's cached group sum, valid while `epoch` equals epoch_.
  template <typename V>
  struct Slot {
    V value{};
    std::uint64_t epoch = 0;
  };
  struct Entry {
    Slot<double> rq;         // sum of RunqueuePowerRatio
    Slot<double> thermal;    // sum of ThermalPowerRatio
    Slot<std::size_t> load;  // sum of nr_running
  };

  // Sum of `metric(cpu)` over `group`'s CPUs, memoized in `slot`. With
  // `rollup` the sum is taken over the child domain's (memoized) group sums
  // where a child link exists, instead of over the CPUs. `metric` is taken
  // by value: through a reference, the compiler reloads its capture after
  // every virtual per-CPU call, which cost a deep pass a few percent.
  template <typename V, typename Metric>
  V Sum(const CpuGroup& group, const BalanceEnv& env, Slot<V> Entry::*slot, Metric metric,
        bool rollup);

  // Sum / number of CPUs (0 for an empty group).
  template <typename V, typename Metric>
  double Average(const CpuGroup& group, const BalanceEnv& env, Slot<V> Entry::*slot,
                 Metric metric, bool rollup);

  // Cache slot for `group`, or nullptr for a group without a hierarchy
  // index (hand-built in tests) - those compute uncached. Grows the table
  // on demand, so callers must not hold entry references across calls.
  Entry* EntryFor(const CpuGroup& group);

  // Keyed by CpuGroup::index - the dense, run-stable group identity
  // DomainHierarchy::Build assigns. (This table was once keyed by the
  // group's address; easlint's determinism-pointer-key rule exists because
  // one ordered walk over such a map would have tied results to malloc
  // addresses.)
  std::vector<Entry> entries_;
  std::uint64_t epoch_ = 1;
  std::uint64_t last_version_ = 0;
  bool has_version_ = false;
  // Double-metric rollups change summation order, so they only switch on
  // for hierarchies deeper than the classic 3 levels (whose outputs are
  // pinned by the golden tests and scenario captures).
  bool deep_rollups_ = false;
};

}  // namespace eas

#endif  // SRC_SCHED_BALANCE_CACHE_H_
