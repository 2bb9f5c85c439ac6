#include "src/sim/sched_tick.h"

namespace eas {
namespace {

// Per-thread speed while both SMT siblings of a package execute.
constexpr double kSmtCorunSpeed = 0.65;

// Speed of a task whose cache is still cold after a migration, for the
// warmup ticks MigrateTask grants it.
constexpr double kWarmupSpeed = 0.5;

}  // namespace

void SchedTick::SpawnArrivals(SimulationState& state) const {
  TickEventQueue<SimulationState::PendingArrival>& queue = state.arrival_queue();
  while (queue.PeekReady(state.now()) != nullptr) {
    const auto entry = queue.Pop();
    state.Spawn(*entry.payload.program, entry.payload.nice);
  }
}

void SchedTick::WakeSleepers(SimulationState& state) const {
  TickEventQueue<Task*>& queue = state.wake_queue();
  while (const auto* ready = queue.PeekReady(state.now())) {
    Task* task = ready->payload;
    const Tick wake_tick = ready->tick;
    queue.Pop();
    // A stale entry - the task was woken by other means and re-slept with a
    // different wake tick - must not fire; the re-sleep pushed its own entry.
    if (task->state() != TaskState::kSleeping || task->wake_tick() != wake_tick) {
      continue;
    }
    // Wake on the CPU the task last ran on (affinity) - unless a fault took
    // it offline while the task slept, in which case the wake redirects to
    // the least-loaded online CPU (Enqueue* rewrites task->cpu()).
    int cpu = task->cpu();
    if (!state.CpuOnline(cpu)) {
      cpu = state.PickOnlineFallback(cpu);
    }
    state.runqueue(cpu).EnqueueFront(task);
  }
}

void SchedTick::SwitchInPackage(SimulationState& state, std::size_t physical) const {
  const std::size_t siblings = state.config().topology.smt_per_physical();
  for (std::size_t t = 0; t < siblings; ++t) {
    state.SwitchInIfIdle(state.config().topology.LogicalId(physical, t));
  }
}

void SchedTick::SelectActive(const SimulationState& state, std::size_t physical, bool throttled,
                             std::vector<int>& active) const {
  active.clear();
  if (throttled) {
    return;
  }
  const std::size_t siblings = state.config().topology.smt_per_physical();
  for (std::size_t t = 0; t < siblings; ++t) {
    const int cpu = state.config().topology.LogicalId(physical, t);
    if (state.runqueue(cpu).current() != nullptr) {
      active.push_back(cpu);
    }
  }
}

void SchedTick::ExecuteActive(SimulationState& state, const std::vector<int>& active,
                              std::vector<EventVector>& events,
                              double frequency_multiplier) const {
  const double corun_speed = (active.size() >= 2 ? kSmtCorunSpeed : 1.0) * frequency_multiplier;
  events.resize(active.size());
  for (std::size_t i = 0; i < active.size(); ++i) {
    Task* task = state.runqueue(active[i]).current();
    double speed = corun_speed;
    if (task->warmup_ticks_left() > 0) {
      speed *= kWarmupSpeed;
    }
    events[i] = task->ExecuteTick(speed);
    task->AccountActiveTick();
    task->TickTimeslice();
  }
}

void SchedTick::HandleLifecycle(SimulationState& state, int cpu) const {
  Runqueue& rq = state.runqueue(cpu);
  Task* task = rq.current();
  if (task == nullptr) {
    return;
  }

  // Blocking (the task called a blocking syscall at the end of a burst).
  const Tick sleep = task->TakePendingSleep();
  if (sleep > 0) {
    state.CommitPeriod(*task);
    rq.TakeCurrent();
    state.StartSleep(*task, sleep);
    return;
  }

  // Work completion: the task respawns as a fresh process of the same
  // binary, so it goes through placement again, seeded from the registry.
  if (task->WorkComplete()) {
    state.CommitPeriod(*task);
    task->RestartProgram();
    rq.TakeCurrent();
    const int cpu_new = state.PlaceTask(*task);
    task->set_timeslice_left(Task::TimesliceForNice(task->nice()));
    state.runqueue(cpu_new).Enqueue(task);
    return;
  }

  // Timeslice expiry: rotate within the local queue.
  if (task->timeslice_left() <= 0) {
    state.CommitPeriod(*task);
    task->set_timeslice_left(Task::TimesliceForNice(task->nice()));
    if (rq.nr_queued() > 0) {
      rq.TakeCurrent();
      rq.Enqueue(task);
    }
    // Alone on the queue: keep running; the period was still committed so
    // the profile and registry stay fresh.
  }
}

}  // namespace eas
