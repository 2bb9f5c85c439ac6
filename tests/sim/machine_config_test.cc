// Machine behaviour under configuration variants (derived power limits, the
// self-calibration path, seeds), and the machine's fixed physics, each pinned
// by what it does: the cache warmup after a migration, the SMT co-run
// slowdown, the timeslice, the hlt hysteresis band and respawn on completion.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/sim/machine.h"
#include "src/workloads/programs.h"

namespace eas {
namespace {

MachineConfig BaseConfig() {
  MachineConfig config;
  config.topology = CpuTopology(1, 2, 1);
  ThermalParams params;
  params.resistance = 0.3;
  params.capacitance = 40.0;
  config.cooling = CoolingProfile::Uniform(2, params);
  config.explicit_max_power_physical = 120.0;
  config.estimator_weights = EnergyModel::Default().weights();
  return config;
}

// A CPU-bound program that never sleeps or completes, so every tick it runs
// adds exactly its execution speed to work_done_ticks().
Program BusyProgram(BinaryId id) {
  Phase phase;
  phase.mean_duration = 1'000'000;
  return Program("busy" + std::to_string(id), id, std::vector<Phase>{phase},
                 /*total_work_ticks=*/0);
}

// The work `task` does in each of the next `ticks` ticks.
std::vector<double> WorkPerTick(Machine& machine, const Task& task, int ticks) {
  std::vector<double> steps;
  for (int i = 0; i < ticks; ++i) {
    const double before = task.work_done_ticks();
    machine.Run(1);
    steps.push_back(task.work_done_ticks() - before);
  }
  return steps;
}

// Migrates `task` to the other CPU of a two-CPU machine and returns the work
// it does in each of the next `ticks` ticks.
std::vector<double> WorkPerTickAfterMigration(Machine& machine, Task* task, int ticks) {
  machine.Run(10);
  const int from = task->cpu();
  EXPECT_TRUE(machine.state().MigrateTask(task, from, 1 - from));
  return WorkPerTick(machine, *task, ticks);
}

TEST(MachineConfigTest, TempLimitDerivesMaxPower) {
  MachineConfig config = BaseConfig();
  config.explicit_max_power_physical.reset();
  config.temp_limit = 38.0;
  Machine machine(config);
  SimulationState& state = machine.state();
  // (38 - 22) / 0.3 = 53.33 W per package, one logical per package.
  EXPECT_NEAR(state.MaxPower(0), 16.0 / 0.3, 1e-9);
  EXPECT_NEAR(state.MaxPowerPhysical(0), 16.0 / 0.3, 1e-9);
}

TEST(MachineConfigTest, SmtSplitsMaxPowerAcrossSiblings) {
  MachineConfig config = BaseConfig();
  config.topology = CpuTopology(1, 1, 2);
  config.cooling = CoolingProfile::Uniform(1, ThermalParams{});
  config.explicit_max_power_physical = 40.0;
  Machine machine(config);
  SimulationState& state = machine.state();
  EXPECT_NEAR(state.MaxPower(0), 20.0, 1e-9);
  EXPECT_NEAR(state.MaxPower(1), 20.0, 1e-9);
  EXPECT_NEAR(state.MaxPowerPhysical(0), 40.0, 1e-9);
  // Idle power also splits.
  EXPECT_NEAR(state.IdlePowerPerLogical(), 6.8, 1e-9);
}

TEST(MachineConfigTest, SelfCalibrationPathWorks) {
  // No injected weights: the machine calibrates against its power meter.
  MachineConfig config = BaseConfig();
  config.estimator_weights.reset();
  Machine machine(config);
  SimulationState& state = machine.state();
  const ProgramLibrary library(EnergyModel::Default());
  Task* task = state.Spawn(library.bitcnts());
  machine.Run(5'000);
  // Calibrated weights keep the profile within the paper's 10% bound.
  EXPECT_NEAR(task->profile().power(), 61.0, 6.1);
}

TEST(MachineConfigTest, SameNodeMigrationRunsThreeTicksAtHalfSpeed) {
  Machine machine(BaseConfig());  // one node, two packages
  const Program busy = BusyProgram(1);
  Task* task = machine.state().Spawn(busy);
  const std::vector<double> steps = WorkPerTickAfterMigration(machine, task, 5);
  EXPECT_EQ(steps, (std::vector<double>{0.5, 0.5, 0.5, 1.0, 1.0}));
  EXPECT_EQ(task->migrations(), 1);
  EXPECT_EQ(task->node_migrations(), 0);
}

TEST(MachineConfigTest, CrossNodeMigrationRunsTwelveTicksAtHalfSpeed) {
  MachineConfig config = BaseConfig();
  config.topology = CpuTopology(2, 1, 1);  // two nodes of one package each
  Machine machine(config);
  const Program busy = BusyProgram(1);
  Task* task = machine.state().Spawn(busy);
  std::vector<double> expected(12, 0.5);
  expected.insert(expected.end(), {1.0, 1.0});
  EXPECT_EQ(WorkPerTickAfterMigration(machine, task, 14), expected);
  EXPECT_EQ(task->node_migrations(), 1);
}

TEST(MachineConfigTest, SmtCorunnersEachProgressPointSixFivePerTick) {
  MachineConfig config = BaseConfig();
  config.topology = CpuTopology(1, 1, 2);
  config.cooling = CoolingProfile::Uniform(1, ThermalParams{});
  Machine machine(config);
  SimulationState& state = machine.state();
  const Program busy_a = BusyProgram(1);
  const Program busy_b = BusyProgram(2);
  Task* a = state.Spawn(busy_a);
  Task* b = state.Spawn(busy_b);
  ASSERT_NE(a->cpu(), b->cpu());
  for (int tick = 0; tick < 20; ++tick) {
    const double a_before = a->work_done_ticks();
    const double b_before = b->work_done_ticks();
    machine.Run(1);
    EXPECT_NEAR(a->work_done_ticks() - a_before, 0.65, 1e-12) << "tick " << tick;
    EXPECT_NEAR(b->work_done_ticks() - b_before, 0.65, 1e-12) << "tick " << tick;
  }
}

TEST(MachineConfigTest, SingleSiblingRunsFullSpeedOnSmt) {
  MachineConfig config = BaseConfig();
  config.topology = CpuTopology(1, 1, 2);
  config.cooling = CoolingProfile::Uniform(1, ThermalParams{});
  Machine machine(config);
  SimulationState& state = machine.state();
  const Program busy = BusyProgram(1);
  Task* a = state.Spawn(busy);
  EXPECT_EQ(WorkPerTick(machine, *a, 20), std::vector<double>(20, 1.0));
}

TEST(MachineConfigTest, LoneTaskCommitsItsPeriodEveryHundredTicks) {
  MachineConfig config = BaseConfig();
  config.topology = CpuTopology(1, 1, 1);
  config.cooling = CoolingProfile::Uniform(1, ThermalParams{});
  Machine machine(config);
  const Program busy = BusyProgram(1);
  Task* task = machine.state().Spawn(busy);
  for (int round = 0; round < 3; ++round) {
    machine.Run(99);
    EXPECT_EQ(task->period_ticks(), 99) << "round " << round;
    EXPECT_EQ(task->timeslice_left(), 1) << "round " << round;
    machine.Run(1);
    // The timeslice expired: the period was committed and a fresh slice
    // granted, while the task keeps its CPU.
    EXPECT_EQ(task->period_ticks(), 0) << "round " << round;
    EXPECT_EQ(task->timeslice_left(), 100) << "round " << round;
    EXPECT_EQ(machine.state().runqueue(0).current(), task);
  }
}

TEST(MachineConfigTest, TwoTasksOnOneCpuAlternateHundredTickSlices) {
  MachineConfig config = BaseConfig();
  config.topology = CpuTopology(1, 1, 1);
  config.cooling = CoolingProfile::Uniform(1, ThermalParams{});
  Machine machine(config);
  SimulationState& state = machine.state();
  const Program busy_a = BusyProgram(1);
  const Program busy_b = BusyProgram(2);
  Task* a = state.Spawn(busy_a);
  Task* b = state.Spawn(busy_b);
  machine.Run(100);
  EXPECT_EQ(a->work_done_ticks(), 100.0);
  EXPECT_EQ(b->work_done_ticks(), 0.0);
  machine.Run(100);
  EXPECT_EQ(a->work_done_ticks(), 100.0);
  EXPECT_EQ(b->work_done_ticks(), 100.0);
  machine.Run(1);
  EXPECT_EQ(a->work_done_ticks(), 101.0);
}

TEST(MachineConfigTest, HaltedPackageResumesHalfAWattBelowItsBudget) {
  MachineConfig config = BaseConfig();
  config.topology = CpuTopology(1, 1, 1);
  config.cooling = CoolingProfile::Uniform(1, ThermalParams{});
  config.explicit_max_power_physical = 40.0;
  config.throttling_enabled = true;
  config.sched = EnergySchedConfig::Baseline();
  Machine machine(config);
  SimulationState& state = machine.state();
  const ProgramLibrary library(EnergyModel::Default());
  state.Spawn(library.bitcnts());
  const double budget = state.MaxPowerPhysical(0);
  int halts = 0;
  int resumes = 0;
  for (int i = 0; i < 60'000; ++i) {
    // The gate compares the thermal power the previous tick left behind.
    const double thermal = state.PackageThermalPower(0);
    const bool was = state.package_throttle(0).throttled();
    machine.Run(1);
    const bool now = state.package_throttle(0).throttled();
    if (!was) {
      EXPECT_EQ(now, thermal > budget) << "tick " << i << ", thermal " << thermal;
      halts += now ? 1 : 0;
    } else {
      EXPECT_EQ(now, thermal >= budget - 0.5) << "tick " << i << ", thermal " << thermal;
      resumes += now ? 0 : 1;
    }
  }
  // Enough duty cycles that the band's lower edge was crossed many times.
  EXPECT_GT(halts, 5);
  EXPECT_GT(resumes, 5);
}

TEST(MachineConfigTest, CompletedTaskRespawnsThroughPlacement) {
  MachineConfig config = BaseConfig();
  Machine machine(config);
  SimulationState& state = machine.state();
  const ProgramLibrary library(EnergyModel::Default());
  Task* task = state.Spawn(library.short_hot());  // 500 ticks of work
  machine.Run(1'000);
  EXPECT_GE(task->completions(), 1);
  EXPECT_NE(SimulationState::TaskCpu(*task), kInvalidCpu);
  EXPECT_EQ(state.TotalCompletions(), task->completions());
}

TEST(MachineConfigTest, DeterministicAcrossRuns) {
  auto run = []() {
    MachineConfig config = BaseConfig();
    Machine machine(config);
    SimulationState& state = machine.state();
    const ProgramLibrary library(EnergyModel::Default());
    state.Spawn(library.bitcnts());
    state.Spawn(library.openssl());
    machine.Run(20'000);
    return std::make_pair(state.TotalWorkDone(), state.TotalTaskEnergy());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_DOUBLE_EQ(a.first, b.first);
  EXPECT_DOUBLE_EQ(a.second, b.second);
}

TEST(MachineConfigTest, SeedChangesStochasticPath) {
  auto run = [](std::uint64_t seed) {
    MachineConfig config = BaseConfig();
    config.seed = seed;
    Machine machine(config);
    SimulationState& state = machine.state();
    const ProgramLibrary library(EnergyModel::Default());
    state.Spawn(library.openssl());
    machine.Run(20'000);
    return state.TotalTaskEnergy();
  };
  EXPECT_NE(run(1), run(2));
}

}  // namespace
}  // namespace eas
