#include "src/sim/machine.h"

#include <gtest/gtest.h>

#include "src/workloads/programs.h"

namespace eas {
namespace {

MachineConfig SmallConfig() {
  MachineConfig config;
  config.topology = CpuTopology(1, 2, 1);
  ThermalParams params;
  params.resistance = 0.3;
  params.capacitance = 40.0;
  config.cooling = CoolingProfile::Uniform(2, params);
  // Generous power budget: these tests exercise mechanics, not policies
  // (bitcnts at 61 W must not trip hot task migration or throttling).
  config.explicit_max_power_physical = 120.0;
  config.sched = EnergySchedConfig::EnergyAware();
  config.estimator_weights = EnergyModel::Default().weights();  // oracle
  return config;
}

class MachineTest : public ::testing::Test {
 protected:
  MachineTest() : library_(EnergyModel::Default()) {}
  ProgramLibrary library_;
};

TEST_F(MachineTest, StartsIdle) {
  Machine machine(SmallConfig());
  SimulationState& state = machine.state();
  EXPECT_EQ(state.now(), 0);
  EXPECT_EQ(state.num_cpus(), 2u);
  for (std::size_t phys = 0; phys < state.num_physical(); ++phys) {
    EXPECT_DOUBLE_EQ(state.Temperature(phys), 22.0);
  }
}

TEST_F(MachineTest, IdleMachineBurnsHaltPower) {
  Machine machine(SmallConfig());
  SimulationState& state = machine.state();
  machine.Run(100);
  for (std::size_t phys = 0; phys < state.num_physical(); ++phys) {
    EXPECT_NEAR(state.TruePower(phys), 13.6, 1e-9);
  }
}

TEST_F(MachineTest, SpawnedTaskRuns) {
  Machine machine(SmallConfig());
  SimulationState& state = machine.state();
  Task* task = state.Spawn(library_.bitcnts());
  machine.Run(1000);
  EXPECT_GT(task->work_done_ticks(), 900.0);
  EXPECT_EQ(task->state(), TaskState::kRunning);
}

TEST_F(MachineTest, RunningBitcntsReachesNominalPower) {
  Machine machine(SmallConfig());
  SimulationState& state = machine.state();
  Task* task = state.Spawn(library_.bitcnts());
  machine.Run(5'000);
  const std::size_t phys = state.config().topology.PhysicalOf(task->cpu());
  EXPECT_NEAR(state.TruePower(phys), 61.0, 2.0);
  // Profile converges to ~61 W too (estimated via counters).
  EXPECT_NEAR(task->profile().power(), 61.0, 2.0);
}

TEST_F(MachineTest, TemperatureRisesUnderLoad) {
  Machine machine(SmallConfig());
  SimulationState& state = machine.state();
  Task* task = state.Spawn(library_.bitcnts());
  machine.Run(60'000);  // 60 s >> tau = 12 s
  const std::size_t phys = state.config().topology.PhysicalOf(task->cpu());
  // Steady state: 22 + 0.3 * 61 = 40.3 C.
  EXPECT_NEAR(state.Temperature(phys), 40.3, 1.0);
}

TEST_F(MachineTest, ThermalPowerTracksConsumption) {
  Machine machine(SmallConfig());
  SimulationState& state = machine.state();
  Task* task = state.Spawn(library_.bitcnts());
  machine.Run(60'000);
  EXPECT_NEAR(state.ThermalPower(task->cpu()), 61.0, 2.5);
}

TEST_F(MachineTest, TwoTasksShareOneCpuViaTimeslices) {
  MachineConfig config = SmallConfig();
  config.topology = CpuTopology(1, 1, 1);
  config.cooling = CoolingProfile::Uniform(1, ThermalParams{});
  Machine machine(config);
  SimulationState& state = machine.state();
  Task* a = state.Spawn(library_.bitcnts());
  Task* b = state.Spawn(library_.memrw());
  machine.Run(10'000);
  // Both made roughly equal progress (fair round robin).
  EXPECT_NEAR(a->work_done_ticks(), b->work_done_ticks(), 600.0);
  EXPECT_NEAR(a->work_done_ticks() + b->work_done_ticks(), 10'000.0, 50.0);
}

TEST_F(MachineTest, PlacementSpreadsTasks) {
  Machine machine(SmallConfig());
  SimulationState& state = machine.state();
  state.Spawn(library_.bitcnts());
  state.Spawn(library_.memrw());
  EXPECT_EQ(state.runqueue(0).nr_running(), 1u);
  EXPECT_EQ(state.runqueue(1).nr_running(), 1u);
}

TEST_F(MachineTest, BlockingTaskSleepsAndWakes) {
  MachineConfig config = SmallConfig();
  Machine machine(config);
  SimulationState& state = machine.state();
  Task* task = state.Spawn(library_.bash());
  bool slept = false;
  for (int i = 0; i < 2'000; ++i) {
    machine.Run(1);
    if (task->state() == TaskState::kSleeping) {
      slept = true;
    }
  }
  EXPECT_TRUE(slept);
  EXPECT_GT(task->work_done_ticks(), 0.0);
  // It must have woken again at some point (still making progress).
  const double before = task->work_done_ticks();
  machine.Run(2'000);
  EXPECT_GT(task->work_done_ticks(), before);
}

TEST_F(MachineTest, CompletionRespawnsAndCounts) {
  MachineConfig config = SmallConfig();
  Machine machine(config);
  SimulationState& state = machine.state();
  ProgramLibrary short_library(EnergyModel::Default());
  Task* task = state.Spawn(short_library.short_hot());  // 500 ticks of work
  machine.Run(2'000);
  EXPECT_GE(task->completions(), 1);
  EXPECT_GE(state.TotalCompletions(), 1);
}

TEST_F(MachineTest, MigrateTaskMovesQueuedTask) {
  Machine machine(SmallConfig());
  SimulationState& state = machine.state();
  state.Spawn(library_.bitcnts());
  state.Spawn(library_.memrw());
  machine.Run(5);
  // Move cpu1's current? No: enqueue an extra task on 0 and move it.
  Task* extra = state.Spawn(library_.aluadd());
  const int from = extra->cpu();
  const int to = 1 - from;
  EXPECT_TRUE(state.MigrateTask(extra, from, to));
  EXPECT_EQ(extra->cpu(), to);
  EXPECT_EQ(state.migration_count(), 1);
  EXPECT_GT(extra->warmup_ticks_left(), 0);
}

TEST_F(MachineTest, MigrateCurrentTaskCommitsPeriod) {
  Machine machine(SmallConfig());
  SimulationState& state = machine.state();
  Task* task = state.Spawn(library_.bitcnts());
  machine.Run(50);  // mid-timeslice
  ASSERT_EQ(state.runqueue(task->cpu()).current(), task);
  const int from = task->cpu();
  const int to = 1 - from;
  EXPECT_TRUE(state.MigrateTask(task, from, to));
  EXPECT_EQ(task->period_ticks(), 0);  // period was committed
  EXPECT_TRUE(state.runqueue(from).Idle());
  EXPECT_EQ(state.runqueue(to).nr_running(), 1u);
}

TEST_F(MachineTest, BinaryRegistryLearnsFirstTimeslice) {
  Machine machine(SmallConfig());
  SimulationState& state = machine.state();
  state.Spawn(library_.bitcnts());
  machine.Run(500);
  EXPECT_TRUE(state.binary_registry().Knows(kBinBitcnts));
  EXPECT_NEAR(state.binary_registry().InitialPowerFor(kBinBitcnts), 61.0, 3.0);
}

TEST_F(MachineTest, SmtCoRunSlowsProgress) {
  MachineConfig config = SmallConfig();
  config.topology = CpuTopology(1, 1, 2);  // one package, two threads
  config.cooling = CoolingProfile::Uniform(1, ThermalParams{});
  Machine machine(config);
  SimulationState& state = machine.state();
  Task* a = state.Spawn(library_.bitcnts());
  Task* b = state.Spawn(library_.aluadd());
  machine.Run(1'000);
  // Both run concurrently but at the co-run speed.
  EXPECT_NEAR(a->work_done_ticks(), 650.0, 60.0);
  EXPECT_NEAR(b->work_done_ticks(), 650.0, 60.0);
}

TEST_F(MachineTest, ThrottlingCapsThermalPower) {
  MachineConfig config = SmallConfig();
  config.throttling_enabled = true;
  config.explicit_max_power_physical = 40.0;
  config.sched = EnergySchedConfig::Baseline();  // no escape by migration
  config.topology = CpuTopology(1, 1, 1);
  config.cooling = CoolingProfile::Uniform(1, ThermalParams{});
  Machine machine(config);
  SimulationState& state = machine.state();
  Task* task = state.Spawn(library_.bitcnts());
  machine.Run(120'000);
  EXPECT_LT(state.ThermalPower(task->cpu()), 41.5);
  EXPECT_GT(state.throttle(task->cpu()).ThrottledFraction(), 0.2);
}

TEST_F(MachineTest, EnergyAttributionConsistent) {
  // Total estimated task energy over a busy run should roughly match
  // integrated true power minus idle overheads (within estimation error).
  Machine machine(SmallConfig());
  SimulationState& state = machine.state();
  state.Spawn(library_.bitcnts());
  state.Spawn(library_.memrw());
  const Tick ticks = 20'000;
  double true_energy = 0.0;
  for (Tick t = 0; t < ticks; ++t) {
    machine.Run(1);
    for (std::size_t phys = 0; phys < state.num_physical(); ++phys) {
      true_energy += state.TruePower(phys) * kTickSeconds;
    }
  }
  const double estimated = state.TotalTaskEnergy();
  EXPECT_NEAR(estimated / true_energy, 1.0, 0.1);
}

TEST_F(MachineTest, TaskCpuReportsInvalidWhileSleeping) {
  Machine machine(SmallConfig());
  SimulationState& state = machine.state();
  Task* task = state.Spawn(library_.bash());
  while (task->state() != TaskState::kSleeping) {
    machine.Run(1);
    ASSERT_LT(state.now(), 5'000);
  }
  EXPECT_EQ(SimulationState::TaskCpu(*task), kInvalidCpu);
}

}  // namespace
}  // namespace eas
