// Initial task placement: the paper's energy-aware exec placement (Section
// 4.6) and the stock Linux placement it is compared against.
//
// Both avoid load imbalances first, through one eligibility rule: only CPUs
// running the fewest tasks are eligible, and among those only CPUs whose
// package runs the fewest - an idle sibling of a busy die is no substitute
// for an idle die. Offline CPUs are never eligible.
//
// The energy-aware placement seeds a new task's energy profile from the
// binary registry (the energy its binary consumed during its first timeslice
// on an earlier run, or a default) and picks the eligible CPU whose
// hypothetical runqueue power ratio (including the new task) comes closest
// to the system-wide average ratio: hot tasks land on cool CPUs and cool
// tasks on hot CPUs. The baseline picks an eligible CPU at random.

#ifndef SRC_CORE_INITIAL_PLACEMENT_H_
#define SRC_CORE_INITIAL_PLACEMENT_H_

#include <vector>

#include "src/base/rng.h"
#include "src/sched/balance_env.h"
#include "src/task/binary_registry.h"

namespace eas {

class InitialPlacement {
 public:
  // Energy-aware placement: seeds `task`'s profile from `registry` and
  // returns the CPU it should start on. Does not enqueue.
  int Place(Task& task, const BalanceEnv& env, const BinaryRegistry& registry);

  // Baseline placement (stock Linux 2.6 exec): an eligible CPU drawn with
  // one `rng.NextBelow`, modelling the incidental state (exec'ing CPU,
  // parent's cache) that decides in a real system without biasing toward
  // CPU 0. Needs at least one online CPU.
  int PlaceBaseline(const BalanceEnv& env, Rng& rng);

 private:
  // The eligibility rule, in one pass over the CPUs: leaves the eligible
  // CPUs in `candidates_`, in id order.
  void CollectCandidates(const BalanceEnv& env);

  std::vector<int> candidates_;  // reused so a spawn allocates nothing
};

}  // namespace eas

#endif  // SRC_CORE_INITIAL_PLACEMENT_H_
