// Baseline hierarchical load balancer (Linux 2.6 style), and the one search
// every balancing policy is written over.
//
// Runs on every CPU and only *pulls*: imbalances that would require pushing
// are resolved when the balancer runs on the remote CPU (Section 4.4). For
// each domain level bottom-up, find the group with the highest average
// runqueue length; if it is not the local group and the imbalance is big
// enough, pull tasks from the longest queue in that group. Resolving at the
// lowest possible level keeps migrations cheap (cache/node affinity).
//
// This is the paper's *comparison baseline* ("energy balancing disabled"):
// it balances load only. The merged energy+load algorithm lives in
// src/core/energy_balancer, the single-metric strawmen in
// src/core/naive_balancers; all of them pick a group and then a queue with
// Greatest/GreatestCpu and walk the levels with BalanceLevels.

#ifndef SRC_SCHED_LOAD_BALANCER_H_
#define SRC_SCHED_LOAD_BALANCER_H_

#include <cstddef>
#include <type_traits>
#include <vector>

#include "src/sched/balance_env.h"
#include "src/sched/balance_policy.h"

namespace eas {

// Minimum difference in queue lengths before a pull happens. 2 matches
// Linux's behaviour of tolerating a difference of one task.
inline constexpr std::size_t kMinLoadImbalance = 2;

// The first of `items` with the strictly greatest `key(item)`, so ties go to
// the lowest index; nullptr when `items` is empty. Stores that key in
// `*greatest_key` when given, so a caller needs no second lookup.
template <typename T, typename Key>
const T* Greatest(const std::vector<T>& items, Key&& key,
                  std::invoke_result_t<Key&, const T&>* greatest_key = nullptr) {
  const T* best = nullptr;
  std::invoke_result_t<Key&, const T&> best_key{};
  for (const T& item : items) {
    const auto item_key = key(item);
    if (best == nullptr || item_key > best_key) {
      best = &item;
      best_key = item_key;
    }
  }
  if (greatest_key != nullptr) {
    *greatest_key = best_key;
  }
  return best;
}

// Greatest over CPU ids: the CPU with the strictly greatest `key(cpu)`, ties
// to the lowest index; -1 when `cpus` is empty.
template <typename Key>
int GreatestCpu(const std::vector<int>& cpus, Key&& key) {
  const int* best = Greatest(cpus, key);
  return best != nullptr ? *best : -1;
}

// The scope a policy searches for its source queue within `group`. On deep
// (> 3-level) hierarchies it descends the child-domain links to the
// sub-group with the greatest `group_key` at each level, O(fanout x depth)
// instead of every runqueue under a coarse group; classic machines keep the
// group as it is (and the flat scan's exact tie-breaking).
template <typename GroupKey>
const CpuGroup& NarrowDeep(const CpuGroup& group, const BalanceEnv& env, GroupKey&& group_key) {
  const CpuGroup* scope = &group;
  if (env.domains().num_levels() > 3) {
    while (scope->child_domain >= 0) {
      const SchedDomain& child =
          env.domains().domains()[static_cast<std::size_t>(scope->child_domain)];
      const CpuGroup* sub = Greatest(child.groups, group_key);
      if (sub == nullptr) {
        break;
      }
      scope = sub;
    }
  }
  return *scope;
}

// Runs `level(domain, local_group)` over `cpu`'s domain levels bottom-up,
// skipping cursors without a local group, and returns the first level result
// that migrated anything: an imbalance is resolved in the lowest domain
// possible, and higher levels run on later invocations if one remains. A
// level result is a migration count or a struct with total().
template <typename Level>
auto BalanceLevels(int cpu, const BalanceEnv& env, Level&& level) {
  using Result = std::invoke_result_t<Level&, const SchedDomain&, const CpuGroup&>;
  for (const DomainCursor& cursor : env.domains().StackFor(cpu)) {
    if (cursor.group == nullptr) {
      continue;
    }
    const Result result = level(*cursor.domain, *cursor.group);
    if constexpr (std::is_integral_v<Result>) {
      if (result > 0) {
        return result;
      }
    } else if (result.total() > 0) {
      return result;
    }
  }
  return Result{};
}

// Which task to prefer when pulling from a remote queue.
enum class PullPreference {
  kAny,   // baseline: whatever is first in the queue
  kHot,   // highest energy profile (remote group is hotter than us)
  kCool,  // lowest energy profile (remote group is cooler than us)
};

class LoadBalancer : public BalancePolicy {
 public:
  // One balancing pass for `cpu`. Returns the number of tasks pulled.
  int Balance(int cpu, BalanceEnv& env) override;

  // Idle-machine no-op guarantee (the engine's skip-ahead capability flag):
  // with every runqueue empty, PullFromBusiest exits at every level because
  // busiest->nr_running() (0) < local.nr_running() (0) + kMinLoadImbalance,
  // so a pass reads loads but mutates nothing and draws no RNG.
  bool IdleMachineIsNoop() const override { return true; }

  // Average nr_running over a CPU group.
  static double GroupLoad(const CpuGroup& group, const BalanceEnv& env);

  // Average of a per-CPU metric over a group (0 for an empty group), summed
  // flat in CPU order - the naive strawmen's uncached group metric.
  template <typename Fn>
  static double GroupAverage(const CpuGroup& group, Fn&& metric) {
    if (group.cpus.empty()) {
      return 0.0;
    }
    double sum = 0.0;
    for (int cpu : group.cpus) {
      sum += metric(cpu);
    }
    return sum / static_cast<double>(group.cpus.size());
  }

  // Picks a task from `queue` according to `preference`; nullptr if empty.
  static Task* PickTask(const Runqueue& queue, PullPreference preference);

  // Pulls tasks onto `cpu` from the longest queue in `group` (NarrowDeep by
  // cached group load) while that queue exceeds the local one by at least
  // kMinLoadImbalance, picking per `preference`. Shared by the baseline
  // balancer and the merged energy/load balancer's load step so the two
  // pull loops cannot drift. Invalidates `env`'s aggregate cache after each
  // pull. Returns the tasks pulled.
  static int PullFromBusiest(int cpu, const CpuGroup& group, PullPreference preference,
                             BalanceEnv& env);
};

}  // namespace eas

#endif  // SRC_SCHED_LOAD_BALANCER_H_
