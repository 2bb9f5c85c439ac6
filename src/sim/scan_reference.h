// The pre-event-queue tick loop, kept as an executable reference.
//
// Drives the exact phase pipeline of SimulationEngine::Tick (every package's
// phases, then lifecycle in package order, then balancing), but wakes
// sleepers by scanning the whole task table and injects workload arrivals
// with an index catch-up loop at the start of each tick - the per-tick
// O(all-tasks-ever-spawned) behaviour the wake and arrival queues replaced.
// Used by bench/tick_hot_path.cc to measure the event-driven engine against
// its predecessor, and by tests/sim/tick_hot_path_test.cc to pin the two
// loops tick-for-tick bit-identical. Keeping the single reference here means
// an engine pipeline change cannot silently leave a stale copy behind.

#ifndef SRC_SIM_SCAN_REFERENCE_H_
#define SRC_SIM_SCAN_REFERENCE_H_

#include <cstddef>
#include <vector>

#include "src/sim/simulation_engine.h"
#include "src/workloads/workload.h"

namespace eas {

class ScanReferenceStepper {
 public:
  explicit ScanReferenceStepper(const EnergySchedConfig& sched) : balance_(sched) {}

  // One tick without arrivals (the workload was fully spawned up front).
  void Step(SimulationState& state) {
    std::size_t next = 0;
    Step(state, kNoArrivals(), next);
  }

  // One tick, first spawning every arrival in the sorted `arrivals` list due
  // at the current tick (`next` is the caller-held catch-up index).
  void Step(SimulationState& state, const std::vector<TaskArrival>& arrivals,
            std::size_t& next) {
    while (next < arrivals.size() && arrivals[next].tick <= state.now()) {
      state.Spawn(*arrivals[next].program, arrivals[next].nice);
      ++next;
    }
    for (const auto& task : state.tasks()) {
      if (task->state() == TaskState::kSleeping && task->wake_tick() <= state.now()) {
        state.runqueue(task->cpu()).EnqueueFront(task);
      }
    }
    const std::size_t physical = state.num_physical();
    package_active_.resize(physical);
    for (std::size_t phys = 0; phys < physical; ++phys) {
      std::vector<int>& active = package_active_[phys];
      const bool throttled = throttle_gate_.GatePackage(state, phys);
      sched_tick_.SwitchInPackage(state, phys);
      throttle_gate_.AccountCpuTicks(state, phys, throttled);
      sched_tick_.SelectActive(state, phys, throttled, active);
      sched_tick_.ExecuteActive(state, active, events_);
      const double true_dynamic = counter_sampler_.Sample(state, phys, active, events_);
      thermal_stepper_.StepPackage(state, phys, active.size(), true_dynamic);
    }
    for (const std::vector<int>& active : package_active_) {
      for (int cpu : active) {
        sched_tick_.HandleLifecycle(state, cpu);
      }
    }
    balance_.Run(state);
    // The shared lifecycle code pushes wake entries this loop never pops.
    // Draining every tick bounds the memory and keeps each push near O(1)
    // (the heap never exceeds one tick's sleep transitions); the push calls
    // themselves remain - a small overhead the original loop did not have,
    // slightly *understating* the engine's measured speedup.
    state.wake_queue().Clear();
    state.AdvanceTick();
  }

 private:
  static const std::vector<TaskArrival>& kNoArrivals() {
    static const std::vector<TaskArrival> none;
    return none;
  }

  SchedTick sched_tick_;
  ThrottleGate throttle_gate_;
  CounterSampler counter_sampler_;
  ThermalStepper thermal_stepper_;
  BalancePhase balance_;
  std::vector<std::vector<int>> package_active_;
  std::vector<EventVector> events_;
};

}  // namespace eas

#endif  // SRC_SIM_SCAN_REFERENCE_H_
