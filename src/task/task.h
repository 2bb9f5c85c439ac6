// Task: the schedulable entity (the paper's "task", Linux's task_struct).
//
// A task executes its program's phases tick by tick, emits counter events,
// carries its energy profile, and records scheduling state (runnable /
// running / sleeping), CPU placement, migration bookkeeping and completion
// statistics. Tasks are owned by the SimulationState (src/sim); schedulers
// hold raw pointers.

#ifndef SRC_TASK_TASK_H_
#define SRC_TASK_TASK_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/base/rng.h"
#include "src/base/time.h"
#include "src/counters/event_types.h"
#include "src/task/energy_profile.h"
#include "src/task/program.h"

namespace eas {

using TaskId = std::int32_t;
inline constexpr int kInvalidCpu = -1;

enum class TaskState {
  kRunnable,  // on a runqueue, not currently executing
  kRunning,   // currently executing on its CPU
  kSleeping,  // blocked; wakes at wake_tick
  kFinished,  // completed all work and was not respawned
};

class Task {
 public:
  Task(TaskId id, const Program* program, std::uint64_t seed);

  // --- identity -----------------------------------------------------------
  TaskId id() const { return id_; }
  const Program& program() const { return *program_; }
  const std::string& name() const { return program_->name(); }

  // --- phase machine ------------------------------------------------------

  // Emits the events for one tick of execution at `speed_factor` (1.0 = full
  // speed; lower when SMT co-running or cache-cold after a migration).
  // Advances the phase machine and work accounting. Returns the events.
  EventVector ExecuteTick(double speed_factor);

  // True if the phase that just ended requests a blocking sleep; returns the
  // sleep duration in ticks (0 if the task does not block now).
  Tick TakePendingSleep();

  // True once total_work_ticks of work have been executed (never for
  // infinite programs). The machine respawns or retires the task.
  bool WorkComplete() const;

  // Restarts the program from phase 0 with fresh work accounting (respawn
  // after completion; used by throughput experiments).
  void RestartProgram();

  const Phase& current_phase() const { return program_->phase(phase_index_); }
  std::size_t phase_index() const { return phase_index_; }
  double work_done_ticks() const { return work_done_ticks_; }
  std::int64_t completions() const { return completions_; }

  // --- scheduling state ---------------------------------------------------
  TaskState state() const { return state_; }
  void set_state(TaskState s) { state_ = s; }
  Tick wake_tick() const { return wake_tick_; }
  void set_wake_tick(Tick t) { wake_tick_ = t; }

  int cpu() const { return cpu_; }
  void set_cpu(int cpu) { cpu_ = cpu; }

  // Nice level (-20 .. 19). Higher-priority (lower nice) tasks receive
  // proportionally longer timeslices - the reason the paper extends the
  // exponential average to variable periods (Section 3.3).
  int nice() const { return nice_; }
  void set_nice(int nice) { nice_ = nice; }

  // Timeslice a fresh scheduling round grants this task, derived from its
  // nice level: base length at nice 0, twice that at nice -20, a small floor
  // near nice 19 (a simplified Linux 2.6 static-priority scale).
  static Tick TimesliceForNice(int nice, Tick base_ticks);

  Tick timeslice_left() const { return timeslice_left_; }
  void set_timeslice_left(Tick t) { timeslice_left_ = t; }
  void TickTimeslice() { --timeslice_left_; }

  // --- energy accounting --------------------------------------------------
  EnergyProfile& profile() { return profile_; }
  const EnergyProfile& profile() const { return profile_; }

  // Energy and duration of the current accounting period (since the task was
  // last switched in); folded into the profile at the next switch point.
  void BeginAccountingPeriod();
  void AccumulateEnergy(double joules) {
    period_energy_ += joules;
    total_energy_ += joules;
  }
  void AccountActiveTick() { ++period_ticks_; }
  double period_energy() const { return period_energy_; }
  Tick period_ticks() const { return period_ticks_; }
  double total_energy() const { return total_energy_; }

  // Folds the current period into the profile and starts a new period.
  // Returns the period energy (used to seed the binary registry with the
  // first-timeslice energy). No-op if the period is empty.
  double CommitAccountingPeriod();

  // True until the first accounting period has been committed; the machine
  // uses this to record the first-timeslice energy in the binary registry.
  bool first_period_pending() const { return first_period_pending_; }

  // Profile power recorded when the task was enqueued - the contribution the
  // owning Runqueue added to its incremental queued-power sum, so removal
  // subtracts exactly what was added. Maintained by Runqueue only.
  double enqueued_power() const { return enqueued_power_; }
  void set_enqueued_power(double watts) { enqueued_power_ = watts; }

  // --- migration bookkeeping ----------------------------------------------
  void NoteMigration(bool crossed_node, Tick warmup_ticks);
  Tick warmup_ticks_left() const { return warmup_ticks_left_; }
  std::int64_t migrations() const { return migrations_; }
  std::int64_t node_migrations() const { return node_migrations_; }

 private:
  TaskId id_;
  const Program* program_;
  Rng rng_;

  std::size_t phase_index_ = 0;
  Tick ticks_left_in_phase_ = 0;
  Tick pending_sleep_ = 0;
  double work_done_ticks_ = 0.0;
  std::int64_t completions_ = 0;

  TaskState state_ = TaskState::kRunnable;
  Tick wake_tick_ = 0;
  int cpu_ = kInvalidCpu;
  int nice_ = 0;
  Tick timeslice_left_ = kDefaultTimesliceTicks;

  EnergyProfile profile_;
  double enqueued_power_ = 0.0;
  double period_energy_ = 0.0;
  Tick period_ticks_ = 0;
  double total_energy_ = 0.0;
  bool first_period_pending_ = true;

  Tick warmup_ticks_left_ = 0;
  std::int64_t migrations_ = 0;
  std::int64_t node_migrations_ = 0;

  void EnterPhase(std::size_t index);
};

}  // namespace eas

#endif  // SRC_TASK_TASK_H_
