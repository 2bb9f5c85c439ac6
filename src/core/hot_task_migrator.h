// Hot task migration (paper Section 4.5, Figure 5; SMT rules Section 4.7).
//
// When a runqueue holds a single task and the CPU is about to reach its
// temperature limit (thermal power within a threshold of its maximum power),
// the task is migrated to a considerably cooler CPU instead of throttling
// the hot one. The destination search walks the domain hierarchy bottom-up
// (skipping SMT levels: a sibling shares the die and would not help) and
// accepts an idle CPU, or exchanges with a CPU running a cool task so no
// load imbalance arises. If even the top-level domain has no suitable CPU,
// all CPUs are hot and the task stays (and the CPU throttles).
//
// On SMT systems the trigger is the *sum* of the sibling thermal powers
// against the physical package's maximum power, since only physical
// processors overheat.

#ifndef SRC_CORE_HOT_TASK_MIGRATOR_H_
#define SRC_CORE_HOT_TASK_MIGRATOR_H_

#include "src/sched/balance_env.h"

namespace eas {

class HotTaskMigrator {
 public:
  // Trigger: thermal power within this margin of max power (W). Must be wide
  // enough that the migration check (every ~100 ms) fires before the
  // throttle controller does.
  static constexpr double kTriggerMarginWatts = 2.0;
  // Destination must be cooler than the source by at least this much (W);
  // "considerably cooler" limits the migration frequency.
  static constexpr double kMinThermalDiffWatts = 10.0;
  // For an exchange, the destination's running task must be cooler than the
  // hot task by this margin (W).
  static constexpr double kExchangeMarginWatts = 5.0;

  struct Result {
    bool migrated = false;
    bool exchanged = false;  // a cool task was moved back in exchange
    int destination = -1;
  };

  // Checks the trigger for `cpu` and performs the migration if a suitable
  // destination exists.
  Result Check(int cpu, BalanceEnv& env) const;

  // The trigger condition alone (exposed for tests and the machine's fast
  // path): true if the CPU is about to reach its limit and runs one task.
  bool ShouldMigrate(int cpu, const BalanceEnv& env) const;
};

}  // namespace eas

#endif  // SRC_CORE_HOT_TASK_MIGRATOR_H_
