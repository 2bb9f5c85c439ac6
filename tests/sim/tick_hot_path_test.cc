// The event-driven tick hot path: the wake queue and arrival queue must be
// tick-for-tick identical to the per-tick scans they replaced, and their
// edge cases (wake on the exact completion tick, stale entries after a
// re-sleep, arrival/wakeup ties) must be deterministic.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/sim/experiment_runner.h"
#include "src/sim/machine.h"
#include "src/sim/scan_reference.h"
#include "src/sim/scenario.h"
#include "src/sim/simulation_engine.h"

namespace eas {
namespace {

// One-CPU machine with oracle estimator weights: every tick is deterministic
// and cheap, so wake/arrival interleavings can be pinned exactly.
MachineConfig OneCpuConfig() {
  MachineConfig config;
  config.topology = CpuTopology(1, 1, 1);
  config.cooling = CoolingProfile::Uniform(1, ThermalParams{});
  config.explicit_max_power_physical = 200.0;
  config.estimator_weights = EnergyModel::Default().weights();
  config.respawn_completed = false;
  config.seed = 3;
  return config;
}

// A phase that never ends on its own: the task runs until its total work is
// done (or forever, for total_work_ticks = 0).
Program MakeBusyProgram(const std::string& name, BinaryId id, Tick total_work_ticks) {
  Phase phase;
  phase.rates = EventRates{};
  phase.mean_duration = 1'000'000;
  return Program(name, id, std::vector<Phase>{phase}, total_work_ticks);
}

// --- wake queue edge cases ---------------------------------------------------

TEST(WakeQueueTest, SleeperWakesOnExactTickCurrentTaskCompletes) {
  const MachineConfig config = OneCpuConfig();
  const Program worker = MakeBusyProgram("worker", 1, /*total_work_ticks=*/50);
  const Program daemon = MakeBusyProgram("daemon", 2, /*total_work_ticks=*/0);

  Machine machine(config);
  SimulationState& state = machine.state();
  Task* a = state.Spawn(worker);
  Task* b = state.Spawn(daemon);

  // Put the daemon to sleep so that it wakes at tick 49 - the exact tick the
  // worker executes its 50th work tick and completes.
  ASSERT_TRUE(state.runqueue(0).Remove(b));
  state.StartSleep(*b, 49);
  EXPECT_EQ(b->wake_tick(), 49);

  machine.Run(49);  // ticks 0..48: the worker runs, one tick of work short
  EXPECT_EQ(b->state(), TaskState::kSleeping);
  EXPECT_EQ(state.runqueue(0).current(), a);

  machine.Run(1);  // tick 49: b wakes at the start, a completes at the end
  EXPECT_EQ(a->state(), TaskState::kFinished);
  EXPECT_EQ(b->state(), TaskState::kRunnable);
  EXPECT_EQ(state.runqueue(0).current(), nullptr);
  EXPECT_EQ(state.runqueue(0).nr_queued(), 1u);

  machine.Run(1);  // tick 50: the woken daemon switches in
  EXPECT_EQ(state.runqueue(0).current(), b);
  EXPECT_EQ(b->state(), TaskState::kRunning);
}

TEST(WakeQueueTest, StaleEntryDroppedAfterResleep) {
  const MachineConfig config = OneCpuConfig();
  const Program daemon = MakeBusyProgram("daemon", 2, 0);

  SimulationState state(config);
  SchedTick sched_tick;
  Task* task = state.Spawn(daemon, 0);
  Runqueue& rq = state.runqueue(0);

  // First sleep: wake scheduled for tick 5.
  ASSERT_EQ(rq.PickNext(), task);
  rq.TakeCurrent();
  state.StartSleep(*task, 5);
  EXPECT_EQ(state.wake_queue().size(), 1u);

  // Woken early by other means, runs, and re-sleeps until tick 10. The
  // tick-5 heap entry is now stale.
  rq.EnqueueFront(task);
  ASSERT_EQ(rq.PickNext(), task);
  rq.TakeCurrent();
  state.StartSleep(*task, 10);
  EXPECT_EQ(state.wake_queue().size(), 2u);

  while (state.now() < 5) {
    state.AdvanceTick();
  }
  sched_tick.WakeSleepers(state);  // the stale tick-5 entry must not fire
  EXPECT_EQ(task->state(), TaskState::kSleeping);
  EXPECT_EQ(rq.nr_running(), 0u);
  EXPECT_EQ(state.wake_queue().size(), 1u);

  while (state.now() < 10) {
    state.AdvanceTick();
  }
  sched_tick.WakeSleepers(state);  // the live tick-10 entry fires exactly once
  EXPECT_EQ(task->state(), TaskState::kRunnable);
  EXPECT_EQ(rq.nr_queued(), 1u);
  EXPECT_TRUE(state.wake_queue().empty());
}

// --- arrival/wakeup ordering -------------------------------------------------

TEST(ArrivalQueueTest, ArrivalSpawnsBeforeWakeupOnSameTick) {
  const MachineConfig config = OneCpuConfig();
  const Program busy = MakeBusyProgram("busy", 1, 0);
  const Program daemon = MakeBusyProgram("daemon", 2, 0);
  const Program newcomer = MakeBusyProgram("newcomer", 3, 0);

  Machine machine(config);
  SimulationState& state = machine.state();
  state.Spawn(busy);  // becomes and stays current
  Task* sleeper = state.Spawn(daemon);
  ASSERT_TRUE(state.runqueue(0).Remove(sleeper));
  state.StartSleep(*sleeper, 10);
  state.ScheduleArrival(newcomer, /*nice=*/0, /*tick=*/10);

  machine.Run(11);  // through tick 10, where the arrival and the wake collide

  // The arrival spawned first (placement saw the pre-wake queue), then the
  // wakeup enqueued at the front: the woken task runs before the newcomer.
  ASSERT_EQ(state.runqueue(0).nr_queued(), 2u);
  EXPECT_EQ(state.runqueue(0).queued()[0], sleeper);
  EXPECT_EQ(state.runqueue(0).queued()[1]->name(), "newcomer");
  EXPECT_EQ(state.tasks().size(), 3u);
}

// --- golden traces: event-driven engine vs the scan-based loop ---------------
//
// The reference (src/sim/scan_reference.h) is the pre-event-queue tick loop:
// the same phase components, but sleepers wake via a scan over the whole
// task table and arrivals are injected by an index catch-up loop at the
// start of each tick, as Experiment::Run used to.

void ExpectStatesBitIdentical(SimulationState& a, SimulationState& b, const std::string& label) {
  ASSERT_EQ(a.now(), b.now()) << label;
  EXPECT_EQ(a.migration_count(), b.migration_count()) << label;
  EXPECT_EQ(a.TotalWorkDone(), b.TotalWorkDone()) << label;
  EXPECT_EQ(a.TotalTaskEnergy(), b.TotalTaskEnergy()) << label;
  EXPECT_EQ(a.TotalCompletions(), b.TotalCompletions()) << label;
  for (std::size_t cpu = 0; cpu < a.num_cpus(); ++cpu) {
    const int c = static_cast<int>(cpu);
    EXPECT_EQ(a.ThermalPower(c), b.ThermalPower(c)) << label << " cpu " << cpu;
    EXPECT_EQ(a.RunqueuePower(c), b.RunqueuePower(c)) << label << " cpu " << cpu;
    EXPECT_EQ(a.runqueue(c).nr_running(), b.runqueue(c).nr_running()) << label << " cpu " << cpu;
  }
  for (std::size_t phys = 0; phys < a.num_physical(); ++phys) {
    EXPECT_EQ(a.Temperature(phys), b.Temperature(phys)) << label << " phys " << phys;
    EXPECT_EQ(a.TruePower(phys), b.TruePower(phys)) << label << " phys " << phys;
  }
  ASSERT_EQ(a.tasks().size(), b.tasks().size()) << label;
  for (std::size_t i = 0; i < a.tasks().size(); ++i) {
    const Task& ta = *a.tasks()[i];
    const Task& tb = *b.tasks()[i];
    EXPECT_EQ(ta.state(), tb.state()) << label << " task " << i;
    EXPECT_EQ(SimulationState::TaskCpu(ta), SimulationState::TaskCpu(tb))
        << label << " task " << i;
    EXPECT_EQ(ta.work_done_ticks(), tb.work_done_ticks()) << label << " task " << i;
    EXPECT_EQ(ta.total_energy(), tb.total_energy()) << label << " task " << i;
    EXPECT_EQ(ta.profile().power(), tb.profile().power()) << label << " task " << i;
  }
}

void RunScenarioEquivalence(const std::string& name, Tick ticks) {
  ScenarioSpec spec = ScenarioRegistry::Global().BuildOrThrow(name);
  spec.config.estimator_weights = EnergyModel::Default().weights();

  SimulationState engine_state(spec.config);
  SimulationState scan_state(spec.config);
  SimulationEngine engine(spec.config.sched);
  ScanReferenceStepper scan(spec.config.sched);

  const std::vector<TaskArrival>& arrivals = spec.workload.arrivals();
  // Engine side: the Experiment::Run protocol - spawn the initial set, feed
  // the rest through the arrival queue. Scan side: the old catch-up loop.
  std::size_t engine_next = 0;
  while (engine_next < arrivals.size() && arrivals[engine_next].tick <= 0) {
    engine_state.Spawn(*arrivals[engine_next].program, arrivals[engine_next].nice);
    ++engine_next;
  }
  for (; engine_next < arrivals.size(); ++engine_next) {
    engine_state.ScheduleArrival(*arrivals[engine_next].program, arrivals[engine_next].nice,
                                 arrivals[engine_next].tick);
  }
  std::size_t scan_next = 0;

  for (Tick t = 0; t < ticks; ++t) {
    engine.Tick(engine_state);
    scan.Step(scan_state, arrivals, scan_next);
  }
  ExpectStatesBitIdentical(engine_state, scan_state, name);
}

TEST(TickHotPathTest, GoldenTraceMatchesScanEngineOnPaperMixed) {
  RunScenarioEquivalence("paper-mixed", 6'000);
}

TEST(TickHotPathTest, GoldenTraceMatchesScanEngineOnServerConsolidation) {
  // Covers the full arrival ramp (the last daemon arrives before tick
  // 19'000), so wake and arrival queues are both exercised at scale.
  RunScenarioEquivalence("server-consolidation", 20'000);
}

// --- determinism across runner thread counts ---------------------------------

TEST(TickHotPathTest, ArrivalsAndWakeupsDeterministicAcrossThreads) {
  ExperimentSpec base =
      ScenarioRegistry::Global().BuildOrThrow("server-consolidation").ToExperimentSpec();
  base.options.duration_ticks = 6'000;
  base.config.estimator_weights = EnergyModel::Default().weights();
  const std::vector<ExperimentSpec> specs(4, base);

  const std::vector<RunResult> baseline = ExperimentRunner(1).RunAll(specs);
  ASSERT_EQ(baseline.size(), specs.size());
  for (std::size_t threads : {2u, 8u}) {
    const std::vector<RunResult> results = ExperimentRunner(threads).RunAll(specs);
    ASSERT_EQ(results.size(), specs.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].work_done_ticks, baseline[i].work_done_ticks)
          << threads << " threads, spec " << i;
      EXPECT_EQ(results[i].migrations, baseline[i].migrations)
          << threads << " threads, spec " << i;
      EXPECT_EQ(results[i].completions, baseline[i].completions)
          << threads << " threads, spec " << i;
    }
  }
}

}  // namespace
}  // namespace eas
