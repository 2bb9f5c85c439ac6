#include "src/core/initial_placement.h"

#include <cmath>
#include <limits>

namespace eas {

void InitialPlacement::CollectCandidates(const BalanceEnv& env) {
  const CpuTopology& topology = env.topology();
  const int n = static_cast<int>(topology.num_logical());
  candidates_.clear();
  std::size_t min_load = std::numeric_limits<std::size_t>::max();
  std::size_t min_package_load = std::numeric_limits<std::size_t>::max();
  for (int cpu = 0; cpu < n; ++cpu) {
    if (!env.CpuOnline(cpu)) {
      continue;
    }
    const std::size_t load = env.runqueue(cpu).nr_running();
    if (load > min_load) {
      continue;
    }
    // The package's load sums every sibling; an offline one holds no tasks
    // once drained.
    const std::size_t physical = topology.PhysicalOf(cpu);
    std::size_t package_load = 0;
    for (std::size_t thread = 0; thread < topology.smt_per_physical(); ++thread) {
      package_load += env.runqueue(topology.LogicalId(physical, thread)).nr_running();
    }
    if (load < min_load || package_load < min_package_load) {
      min_load = load;
      min_package_load = package_load;
      candidates_.clear();
    } else if (package_load > min_package_load) {
      continue;
    }
    candidates_.push_back(cpu);
  }
}

int InitialPlacement::Place(Task& task, const BalanceEnv& env, const BinaryRegistry& registry) {
  task.profile().Seed(registry.InitialPowerFor(task.program().binary_id()));
  const double task_power = task.profile().power();

  // Target: the current average runqueue power ratio over all CPUs, offline
  // ones included, summed in id order (the order fixes the rounding).
  const std::size_t n = env.topology().num_logical();
  double avg_ratio = 0.0;
  for (std::size_t cpu = 0; cpu < n; ++cpu) {
    avg_ratio += env.RunqueuePowerRatio(static_cast<int>(cpu));
  }
  avg_ratio /= static_cast<double>(n);

  CollectCandidates(env);
  int best = 0;
  double best_distance = std::numeric_limits<double>::max();
  for (const int cpu : candidates_) {
    // Hypothetical runqueue power with the new task added.
    const std::size_t count = env.runqueue(cpu).nr_running();
    const double current_power = count == 0 ? 0.0 : env.RunqueuePower(cpu);
    const double hypothetical =
        (current_power * static_cast<double>(count) + task_power) /
        static_cast<double>(count + 1);
    const double ratio = hypothetical / env.MaxPower(cpu);
    const double distance = std::fabs(ratio - avg_ratio);
    if (distance < best_distance) {
      best_distance = distance;
      best = cpu;
    }
  }
  return best;
}

int InitialPlacement::PlaceBaseline(const BalanceEnv& env, Rng& rng) {
  CollectCandidates(env);
  return candidates_[rng.NextBelow(candidates_.size())];
}

}  // namespace eas
