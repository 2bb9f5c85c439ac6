// The mutable state of one simulated machine, shared by the engine's phase
// components.
//
// SimulationState owns what the paper's modified kernel owns: per logical
// CPU runqueues, counters, power metrics and throttle statistics; per
// physical package RC thermal state, true power and the throttle decision;
// the calibrated estimator; the binary registry; and the task table. It
// implements BalanceEnv, so every balancing policy runs against it
// unchanged. The per-tick *behaviour* lives in the phase components
// (sched_tick, throttle_gate, counter_sampler, thermal_stepper) orchestrated
// by the SimulationEngine; state-owned helpers here are the primitives more
// than one phase needs (placement, period commit, migration).
//
// Shard ownership (the cluster-scale contract): all per-CPU and per-package
// mutable state lives in one PackageShard per physical package. During the
// engine's package phase loop - gate, governor, switch-in, tick accounting,
// execute, counter sampling, thermal step - a package's phases read and
// write only its own shard (plus the tasks currently on its runqueues,
// which exactly one package holds at a time), so the loop parallelizes
// across packages with no cross-shard writes. Everything
// cross-package - arrivals, wakeups, task lifecycle, balancing, the skip-
// ahead quiescent kernels - runs sequentially in package order. The
// machine-wide runnable count is a per-shard counter summed on read, which
// is what lets runqueues keep their lock-free increment inside the parallel
// region and still feed the skip-ahead planner's quiescence test.

#ifndef SRC_SIM_SIMULATION_STATE_H_
#define SRC_SIM_SIMULATION_STATE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <memory_resource>
#include <vector>

#include "src/base/annotations.h"
#include "src/core/initial_placement.h"
#include "src/fault/fault_plan.h"
#include "src/core/power_metrics.h"
#include "src/counters/counter_block.h"
#include "src/counters/energy_estimator.h"
#include "src/sched/balance_env.h"
#include "src/sim/event_queue.h"
#include "src/sim/machine_config.h"
#include "src/task/binary_registry.h"
#include "src/thermal/rc_model.h"
#include "src/thermal/throttle_controller.h"
#include "src/topo/frequency_domain.h"

namespace eas {

// The hlt throttle's hysteresis band: a halted package resumes once its
// thermal power has fallen this far below its budget. The frequency
// governors take the same margin as their step-up headroom.
inline constexpr double kThrottleHysteresisWatts = 0.5;

// Everything one physical package mutates during the engine's package phase
// loop. `runqueues[t]` etc. are indexed by the SMT thread slot; the flat
// per-logical tables in SimulationState map `cpu -> &shard(cpu % P).x[cpu / P]`
// so the hot accessors stay one load. The shard vector is reserved up front
// and shards never move, so those pointers (and the runnable-counter pointer
// each runqueue holds into its shard) stay valid for the state's lifetime.
struct PackageShard {
  PackageShard(const ThermalParams& params, double halt_power)
      : package_throttle(kThrottleHysteresisWatts),
        thermal(params),
        freq_domain(PStateTable::Default()),
        last_true_power(halt_power) {}

  std::vector<Runqueue> runqueues;            // per SMT sibling
  std::vector<CounterBlock> counters;         // per SMT sibling
  std::vector<CpuPowerState> power_states;    // per SMT sibling
  std::vector<ThrottleController> throttles;  // per SMT sibling (stats)
  ThrottleController package_throttle;        // the package halt decision
  RcThermalModel thermal;
  FrequencyDomain freq_domain;
  double last_true_power;
  // This shard's share of the machine-wide nr_running; the shard's
  // runqueues point here, so parallel package phases never contend on a
  // global counter.
  std::int64_t runnable = 0;
};

class SimulationState : public BalanceEnv {
 public:
  explicit SimulationState(const MachineConfig& config);
  ~SimulationState() override;

  // Runqueues point at their shard's runnable counter and tasks live in the
  // arena; the state is pinned in place for its lifetime.
  SimulationState(const SimulationState&) = delete;
  SimulationState& operator=(const SimulationState&) = delete;

  // --- BalanceEnv -----------------------------------------------------------
  const CpuTopology& topology() const override { return config_.topology; }
  const DomainHierarchy& domains() const override { return domains_; }
  EAS_SHARD_LOCAL Runqueue& runqueue(int cpu) override {
    return *runqueue_by_cpu_[static_cast<std::size_t>(cpu)];
  }
  EAS_SHARD_LOCAL const Runqueue& runqueue(int cpu) const override {
    return *runqueue_by_cpu_[static_cast<std::size_t>(cpu)];
  }
  EAS_SHARD_LOCAL double RunqueuePower(int cpu) const override;
  EAS_SHARD_LOCAL double ThermalPower(int cpu) const override;
  EAS_SHARD_LOCAL double MaxPower(int cpu) const override;
  EAS_CROSS_SHARD bool MigrateTask(Task* task, int from, int to) override;
  bool CpuOnline(int cpu) const override {
    return cpu_online_[static_cast<std::size_t>(cpu)] != 0;
  }
  std::int64_t migration_count() const override { return migration_count_; }
  // Balance metrics only change between balance passes when the tick
  // advances: every non-balance mutation (spawn, wake, execution, sampling,
  // lifecycle) happens before BalancePhase within a tick, and migrations
  // during the phase invalidate their two CPUs' aggregates explicitly. So
  // the tick counter is the version, and every balance pass within one tick
  // shares the aggregate cache.
  std::uint64_t metrics_version() const override { return static_cast<std::uint64_t>(now_); }

  // --- workload -------------------------------------------------------------

  // Creates a task running `program` and places it (energy-aware placement
  // if enabled, least-loaded otherwise). `nice` scales the task's timeslices
  // (Task::TimesliceForNice); one outside [Task::kMinNice, Task::kMaxNice]
  // throws std::invalid_argument before anything is created.
  EAS_CROSS_SHARD Task* Spawn(const Program& program, int nice = 0);

  // Placement for a (re)spawned task per `energy_aware_placement`:
  // InitialPlacement::Place seeds the profile from the binary registry;
  // InitialPlacement::PlaceBaseline draws from the state's RNG and leaves
  // the profile alone.
  EAS_CROSS_SHARD int PlaceTask(Task& task);

  // Ends the current accounting period of `task` and feeds the binary
  // registry on the task's first committed period.
  EAS_CROSS_SHARD void CommitPeriod(Task& task);

  // If `cpu` has no current task, switches in the next queued one.
  EAS_SHARD_LOCAL void SwitchInIfIdle(int cpu);

  // --- event queues (the tick hot path) -------------------------------------
  //
  // Sleeper wakeups and workload arrivals are min-heaps keyed (tick, order)
  // instead of per-tick scans, so a tick's cost scales with the events due,
  // not with every task ever spawned.

  // Puts `task` (already detached from its runqueue) to sleep for `duration`
  // ticks and schedules its wakeup. The wake queue is the only wake
  // mechanism: a task made kSleeping without going through here never wakes.
  EAS_CROSS_SHARD void StartSleep(Task& task, Tick duration);

  // Schedules `program` to be spawned with `nice` at the start of `tick`
  // (before that tick's wakeups). Insertion order breaks ties.
  EAS_CROSS_SHARD void ScheduleArrival(const Program& program, int nice, Tick tick);

  struct PendingArrival {
    const Program* program = nullptr;
    int nice = 0;
  };
  EAS_CROSS_SHARD TickEventQueue<Task*>& wake_queue() { return wake_queue_; }
  EAS_CROSS_SHARD const TickEventQueue<Task*>& wake_queue() const { return wake_queue_; }
  EAS_CROSS_SHARD TickEventQueue<PendingArrival>& arrival_queue() { return arrival_queue_; }
  EAS_CROSS_SHARD const TickEventQueue<PendingArrival>& arrival_queue() const {
    return arrival_queue_;
  }

  // Machine-wide nr_running: the sum of the per-shard counters the
  // runqueues maintain incrementally. The skip-ahead planner's quiescence
  // test: zero means no task is runnable or running anywhere, so ticks are
  // pure idle physics until the next wake or arrival.
  EAS_CROSS_SHARD std::int64_t total_runnable() const {
    std::int64_t total = 0;
    for (const PackageShard& shard : shards_) {
      total += shard.runnable;
    }
    return total;
  }

  // --- fault injection (src/fault/fault_plan.h, applied by FaultPhase) ------
  //
  // The constructor parses config.fault_spec into the fault queue (throwing
  // std::invalid_argument on a malformed spec); the FaultPhase pops due
  // events at the start of each tick and mutates the masks below. All of
  // this is engine-sequential state: the phase runs before any parallel
  // fan-out, and the package phases only *read* the masks for their own
  // package.

  EAS_CROSS_SHARD TickEventQueue<FaultEvent>& fault_queue() { return fault_queue_; }
  EAS_CROSS_SHARD const TickEventQueue<FaultEvent>& fault_queue() const { return fault_queue_; }

  // Flips a CPU's online bit, maintaining the per-package online-sibling
  // and machine-wide offline counts. No-op if the bit already matches.
  EAS_CROSS_SHARD void SetCpuOnline(int cpu, bool online);

  // Online SMT siblings of a package (== smt_per_physical() when healthy).
  EAS_SHARD_LOCAL std::int64_t online_siblings(std::size_t physical) const {
    return online_siblings_[physical];
  }
  std::int64_t offline_cpu_count() const { return offline_cpus_; }
  // Ledger: sum over ticks of the offline-CPU count at each tick, appended
  // by FaultPhase after it applies the tick's events.
  std::int64_t offline_cpu_ticks() const { return offline_cpu_ticks_; }
  EAS_CROSS_SHARD void AccountOfflineTicks() { offline_cpu_ticks_ += offline_cpus_; }
  std::int64_t faults_fired() const { return faults_fired_; }
  EAS_CROSS_SHARD void NoteFaultFired() { ++faults_fired_; }

  // Thermal emergency: while active the governor is forced to the deepest
  // P-state (ungoverned machines halt through the gate's backstop).
  EAS_SHARD_LOCAL bool EmergencyActive(std::size_t physical) const {
    return now_ < emergency_until_[physical];
  }
  EAS_CROSS_SHARD void RaiseEmergency(std::size_t physical, Tick until) {
    emergency_until_[physical] = std::max(emergency_until_[physical], until);
  }

  // P-state clamp: while active the package's P-state index may not drop
  // below the floor (deeper = higher index = slower is always allowed).
  EAS_SHARD_LOCAL bool ClampActive(std::size_t physical) const {
    return now_ < clamp_until_[physical];
  }
  EAS_SHARD_LOCAL std::size_t clamp_floor(std::size_t physical) const {
    return clamp_floor_[physical];
  }
  EAS_CROSS_SHARD void SetClamp(std::size_t physical, std::size_t floor, Tick until) {
    clamp_floor_[physical] = floor;
    clamp_until_[physical] = std::max(clamp_until_[physical], until);
  }

  // True when no fault effect is live: every CPU online, no emergency or
  // clamp window open, and (ungoverned) every domain back at P0. The
  // skip-ahead planner requires this before entering a quiescent span, so
  // the reduced kernels never have to model offline physics.
  EAS_CROSS_SHARD bool FaultQuiescent() const;

  // Least-loaded online CPU other than `excluding` (lowest id breaks ties -
  // deterministic, no RNG draw: fault reactions must not perturb the shared
  // stream). Returns `excluding` itself only if no other CPU is online,
  // which the FaultPhase's last-CPU guard prevents.
  EAS_CROSS_SHARD int PickOnlineFallback(int excluding) const;

  // --- derived quantities ---------------------------------------------------
  std::size_t num_cpus() const { return config_.topology.num_logical(); }
  std::size_t num_physical() const { return config_.topology.num_physical(); }
  double IdlePowerPerLogical() const;
  EAS_SHARD_LOCAL double MaxPowerPhysical(std::size_t physical) const;

  // Sum of the sibling thermal powers of a package - the quantity both the
  // hlt ThrottleGate and the frequency governors compare against the
  // package budget (one definition, so the two mechanisms cannot drift).
  EAS_SHARD_LOCAL double PackageThermalPower(std::size_t physical) const;
  EAS_SHARD_LOCAL double Temperature(std::size_t physical) const {
    return shards_[physical].thermal.temperature();
  }
  EAS_SHARD_LOCAL double TruePower(std::size_t physical) const {
    return shards_[physical].last_true_power;
  }
  EAS_CROSS_SHARD double TotalWorkDone() const;
  EAS_CROSS_SHARD std::int64_t TotalCompletions() const;
  EAS_CROSS_SHARD double TotalTaskEnergy() const;

  // Logical CPU a task occupies, or kInvalidCpu while it sleeps.
  static int TaskCpu(const Task& task);

  // --- raw state (the phase components work on these) -----------------------
  const MachineConfig& config() const { return config_; }
  // The engine's sequential sections own the clock and the shared RNG
  // stream: one draw from a parallel phase would make the stream's order
  // depend on worker interleaving.
  EAS_CROSS_SHARD Rng& rng() { return rng_; }
  Tick now() const { return now_; }
  EAS_CROSS_SHARD void AdvanceTick() { ++now_; }
  // Clock jump for the skip-ahead fast path, after the span's state updates
  // have been integrated in bulk.
  EAS_CROSS_SHARD void AdvanceTicks(Tick n) { now_ += n; }

  EAS_SHARD_LOCAL CounterBlock& counters(int cpu) {
    return *counter_by_cpu_[static_cast<std::size_t>(cpu)];
  }
  EAS_SHARD_LOCAL CpuPowerState& power_state(int cpu) {
    return *power_state_by_cpu_[static_cast<std::size_t>(cpu)];
  }
  EAS_SHARD_LOCAL ThrottleController& throttle(int cpu) {
    return *throttle_by_cpu_[static_cast<std::size_t>(cpu)];
  }
  EAS_SHARD_LOCAL const ThrottleController& throttle(int cpu) const {
    return *throttle_by_cpu_[static_cast<std::size_t>(cpu)];
  }
  EAS_SHARD_LOCAL ThrottleController& package_throttle(std::size_t physical) {
    return shards_[physical].package_throttle;
  }
  EAS_SHARD_LOCAL const ThrottleController& package_throttle(std::size_t physical) const {
    return shards_[physical].package_throttle;
  }
  EAS_SHARD_LOCAL RcThermalModel& thermal(std::size_t physical) {
    return shards_[physical].thermal;
  }
  EAS_SHARD_LOCAL FrequencyDomain& freq_domain(std::size_t physical) {
    return shards_[physical].freq_domain;
  }
  EAS_SHARD_LOCAL const FrequencyDomain& freq_domain(std::size_t physical) const {
    return shards_[physical].freq_domain;
  }
  EAS_SHARD_LOCAL void set_true_power(std::size_t physical, double watts) {
    shards_[physical].last_true_power = watts;
  }

  EAS_SHARD_LOCAL PackageShard& shard(std::size_t physical) { return shards_[physical]; }
  EAS_SHARD_LOCAL const PackageShard& shard(std::size_t physical) const {
    return shards_[physical];
  }

  const std::vector<Task*>& tasks() const { return tasks_; }
  Task* task(std::size_t i) { return tasks_[i]; }

  EAS_CROSS_SHARD const BinaryRegistry& binary_registry() const { return registry_; }
  EAS_CROSS_SHARD BinaryRegistry& binary_registry() { return registry_; }
  const EnergyEstimator& estimator() const { return *estimator_; }

 private:
  MachineConfig config_;
  DomainHierarchy domains_;
  Rng rng_;

  // One shard per physical package (reserved, never reallocated), plus flat
  // per-logical pointer tables so the hot accessors stay O(1) loads.
  std::vector<PackageShard> shards_;
  std::vector<Runqueue*> runqueue_by_cpu_;            // per logical
  std::vector<CounterBlock*> counter_by_cpu_;         // per logical
  std::vector<CpuPowerState*> power_state_by_cpu_;    // per logical
  std::vector<ThrottleController*> throttle_by_cpu_;  // per logical
  std::vector<double> max_power_logical_;             // per logical (const after ctor)

  std::unique_ptr<EnergyEstimator> estimator_;
  BinaryRegistry registry_;
  InitialPlacement placement_;

  // Task storage: objects are placement-new'd into a monotonic arena (one
  // bump allocation per spawn, freed wholesale when the state dies). The
  // destructor runs each task's destructor explicitly; the arena then
  // releases the memory in one shot.
  std::pmr::monotonic_buffer_resource task_arena_;
  std::vector<Task*> tasks_;
  TaskId next_task_id_ = 1;
  Tick now_ = 0;
  std::int64_t migration_count_ = 0;

  // (wake_tick, task_id)-keyed sleeper wakeups; task-id tie-break reproduces
  // the task-table scan order this queue replaced.
  TickEventQueue<Task*> wake_queue_;
  // (tick, insertion seq)-keyed workload arrivals.
  TickEventQueue<PendingArrival> arrival_queue_;
  std::int64_t next_arrival_seq_ = 0;

  // Fault-layer state (allocated unconditionally - a handful of words - so
  // CpuOnline() stays branch-free on the fault-free hot path; the queue and
  // counters only ever change when config.faulted()).
  TickEventQueue<FaultEvent> fault_queue_;        // (tick, plan position)
  std::vector<std::uint8_t> cpu_online_;          // per logical, 1 = online
  std::vector<std::int64_t> online_siblings_;     // per package
  std::vector<Tick> emergency_until_;             // per package, exclusive
  std::vector<Tick> clamp_until_;                 // per package, exclusive
  std::vector<std::size_t> clamp_floor_;          // per package
  std::int64_t offline_cpus_ = 0;
  std::int64_t offline_cpu_ticks_ = 0;
  std::int64_t faults_fired_ = 0;
};

}  // namespace eas

#endif  // SRC_SIM_SIMULATION_STATE_H_
