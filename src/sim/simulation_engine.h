// The per-tick pipeline, orchestrating the phase components.
//
// One engine tick reproduces the paper's modified kernel tick, in which each
// task runs on at most one CPU and is charged its energy there:
//
//   0. FaultPhase::Run             - due fault-plan events mutate the machine
//                                    (only on faulted configs; see
//                                    src/sim/fault_phase.h)
//   1. SchedTick::SpawnArrivals    - workload arrivals due this tick spawn
//      SchedTick::WakeSleepers     - expired sleeps re-enter their runqueues
//   2. per physical package, fanned over the intra-run worker pool:
//      a. ThrottleGate::GatePackage    - hlt decision on summed thermal power
//      b. FrequencyPhase::GovernPackage- DVFS governor picks the P-state
//      c. SchedTick::SwitchInPackage   - idle siblings pick their next task
//      d. ThrottleGate::AccountCpuTicks- Table 3 statistics
//      e. SchedTick::SelectActive / ExecuteActive - run tasks at the
//                                        P-state's speed, emit events
//      f. CounterSampler::Sample       - counters, estimator, energy metrics
//                                        (P-state voltage scaling applied)
//      g. ThermalStepper::StepPackage  - true power, RC temperature step
//      h. SchedTick::HandleLifecycle   - blocking / completion / expiry of
//                                        every CPU that executed, after all
//                                        packages ran 2a-2g, in package order
//   3. BalancePhase::Run           - the registry-selected policy plus hot
//                                    task migration, on their intervals
//   4. tick counter advance, then TickObservers (accounting, tracing)
//
// Phases 2a-2g of a package touch only that package's shard, so the fan-out
// is race-free and the worker count cannot change a result. Everything that
// couples packages (2h onwards) runs on the calling thread in a fixed order,
// which is also why a task respawned onto another package by 2h cannot run
// a second time in the same tick.
//
// The engine holds no machine state; everything lives in SimulationState,
// so phases are individually testable and engines are cheap.

#ifndef SRC_SIM_SIMULATION_ENGINE_H_
#define SRC_SIM_SIMULATION_ENGINE_H_

#include <memory>
#include <vector>

#include "src/base/annotations.h"
#include "src/base/exp_average.h"
#include "src/base/lockstep.h"
#include "src/core/hot_task_migrator.h"
#include "src/sched/balance_policy.h"
#include "src/sim/counter_sampler.h"
#include "src/sim/fault_phase.h"
#include "src/sim/frequency_phase.h"
#include "src/sim/package_worker_pool.h"
#include "src/sim/sched_tick.h"
#include "src/sim/simulation_state.h"
#include "src/sim/thermal_stepper.h"
#include "src/sim/throttle_gate.h"
#include "src/thermal/rc_model.h"

namespace eas {

// Observes completed engine ticks (e.g. the accounting that records the
// experiment traces). Observers run after the tick counter has advanced.
class TickObserver {
 public:
  virtual ~TickObserver() = default;
  virtual void OnTick(const SimulationState& state) = 0;

  // Skip-ahead contract: the earliest now value strictly after `now` at
  // which OnTick does observable work. At every now value before that,
  // OnTick must be a no-op - the engine's quiescent fast path advances the
  // clock in bulk and only invokes observers at span boundaries, so a
  // sparse observer (accounting on a sampling grid) does not force per-tick
  // stepping. The default declares every tick observable, which keeps any
  // observer that does not opt in on the exact per-tick path.
  virtual Tick NextObservableTick(Tick now) const { return now + 1; }
};

// Periodic balancing: runs the policy selected by name through the
// BalancePolicyRegistry, plus hot task migration, each on its interval with
// per-CPU stagger. The phase is configured entirely by the sched config it
// was constructed with (policy, options) - the state it runs over
// only provides machine state, so an engine never silently mixes its own
// policy with a foreign state's cadence.
class BalancePhase {
 public:
  // Balancing cadence (per CPU). Linux rebalances every ~100-200 ms busy.
  static constexpr Tick kBalanceIntervalTicks = 200;
  // Idle CPUs try to pull work much more eagerly.
  static constexpr Tick kIdleBalanceIntervalTicks = 10;
  // Hot-task-migration trigger check cadence.
  static constexpr Tick kHotCheckIntervalTicks = 100;

  // Resolves the policy via BalancePolicyRegistry::Global(); throws
  // std::invalid_argument for an unknown policy name.
  explicit BalancePhase(const EnergySchedConfig& sched);

  void Run(SimulationState& state);

  const BalancePolicy& policy() const { return *policy_; }

 private:
  bool hot_task_migration_;
  std::unique_ptr<BalancePolicy> policy_;
  HotTaskMigrator hot_migrator_;
};

class SimulationEngine {
 public:
  explicit SimulationEngine(const EnergySchedConfig& sched);

  // Advances `state` by one tick through the full pipeline above. The
  // package phases run over min(config().intra_run_threads, packages)
  // workers (0 and 1 both mean the calling thread alone); results are
  // bit-identical for every worker count.
  void Tick(SimulationState& state);

  // Advances `state` by `ticks` ticks, end-state and trace bit-identical to
  // calling Tick that many times. When the machine is quiescent (no task
  // runnable or running anywhere), the configured policy's idle passes are
  // proven no-ops, and config().skip_ahead is set, spans up to the next
  // interesting tick - earliest wake, arrival, observer sample, or the run
  // budget - are advanced through a reduced kernel instead of the full
  // pipeline:
  //  - ungoverned machines with throttling disabled integrate the whole
  //    span in closed form (every CPU's exponential average and every
  //    package's RC model stepped side by side through its per-tick
  //    recurrence in one lockstep pass, each block of averages beside a
  //    block of temperatures, bit for bit, stopping early at floating-point
  //    fixed points; src/base/lockstep.h) and jump the clock;
  //  - governed or throttling machines step tick by tick through the
  //    package phases alone (on an idle machine only the gate, governor,
  //    idle energy credit and thermal step change anything), skipping heap
  //    peeks, lifecycle and balancing, all of which are provably no-ops.
  void Advance(SimulationState& state, eas::Tick ticks);

  void AddObserver(TickObserver* observer);
  void RemoveObserver(TickObserver* observer);

  const BalancePolicy& policy() const { return balance_.policy(); }

 private:
  // Builds the worker pool and the per-worker / per-package scratch for
  // `state`'s machine on first use (and eagerly initializes the frequency
  // governors, whose lazy construction is not safe inside the fan-out).
  void EnsureRuntime(SimulationState& state);

  // Phases 2a-2g for one package, using `worker`'s sampler and event
  // scratch; leaves the package's executing CPUs in package_active_.
  EAS_SHARD_LOCAL void RunPackagePhases(SimulationState& state, std::size_t physical,
                                        std::size_t worker);

  // Integrates a quiescent span of `span` ticks in bulk (ungoverned,
  // throttling disabled). Does not invoke observers.
  void RunQuiescentSpanFast(SimulationState& state, eas::Tick span);

  // Steps a quiescent span tick by tick through the package phases
  // (governor and throttle decisions depend on the evolving thermal state,
  // so they run every tick; switch-in, selection and execution find nothing
  // to do). Invokes observers like the full pipeline.
  void RunQuiescentSpanSlow(SimulationState& state, eas::Tick span);

  SchedTick sched_tick_;
  FaultPhase fault_;
  ThrottleGate throttle_gate_;
  FrequencyPhase frequency_;
  ThermalStepper thermal_stepper_;
  BalancePhase balance_;
  std::vector<TickObserver*> observers_;

  // Runtime built on first use. The active lists are per package (they
  // outlive the fan-out: the sequential lifecycle phase replays them in
  // package order); the samplers and event scratch are per worker
  // (CounterSampler keeps a reusable mask, and event vectors are plain
  // scratch, so one instance per concurrent caller).
  std::unique_ptr<PackageWorkerPool> pool_;
  std::vector<std::vector<int>> package_active_;
  std::vector<CounterSampler> worker_samplers_;
  std::vector<std::vector<EventVector>> worker_events_;

  // RunQuiescentSpanFast's scratch: one chain per logical CPU's thermal
  // power and one per package's temperature, the two families of its one
  // StepInLockstep call.
  std::vector<LockstepChain<ExpAverage::Recurrence>> cpu_chains_;
  std::vector<LockstepChain<RcThermalModel::Recurrence>> package_chains_;
};

}  // namespace eas

#endif  // SRC_SIM_SIMULATION_ENGINE_H_
