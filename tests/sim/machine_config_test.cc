// Machine behaviour under configuration variants: derived power limits,
// migration warmup costs, SMT co-run speed, the self-calibration path,
// throttle hysteresis, and custom timeslices.

#include <gtest/gtest.h>

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
  config.meter_error_stddev = 0.02;
  Machine machine(config);
  SimulationState& state = machine.state();
  const ProgramLibrary library(EnergyModel::Default());
  Task* task = state.Spawn(library.bitcnts());
  machine.Run(5'000);
  // Calibrated weights keep the profile within the paper's 10% bound.
  EXPECT_NEAR(task->profile().power(), 61.0, 6.1);
}

TEST(MachineConfigTest, WarmupPenaltySlowsMigratedTask) {
  MachineConfig config = BaseConfig();
  config.warmup_ticks_same_node = 50;
  config.warmup_speed = 0.5;
  Machine machine(config);
  SimulationState& state = machine.state();
  const ProgramLibrary library(EnergyModel::Default());
  Task* task = state.Spawn(library.bitcnts());
  machine.Run(10);
  const double before = task->work_done_ticks();
  state.MigrateTask(task, task->cpu(), 1 - task->cpu());
  machine.Run(50);
  // ~50 ticks at half speed (plus a switch-in tick).
  EXPECT_LT(task->work_done_ticks() - before, 32.0);
  machine.Run(50);
  EXPECT_GT(task->work_done_ticks() - before, 60.0);  // back to full speed
}

TEST(MachineConfigTest, CrossNodeWarmupIsLonger) {
  MachineConfig config = BaseConfig();
  config.topology = CpuTopology(2, 1, 1);
  config.cooling = CoolingProfile::Uniform(2, ThermalParams{});
  Machine machine(config);
  SimulationState& state = machine.state();
  const ProgramLibrary library(EnergyModel::Default());
  Task* task = state.Spawn(library.bitcnts());
  machine.Run(10);
  state.MigrateTask(task, task->cpu(), 1 - task->cpu());
  EXPECT_EQ(task->warmup_ticks_left(), config.warmup_ticks_cross_node);
  EXPECT_EQ(task->node_migrations(), 1);
}

TEST(MachineConfigTest, CorunSpeedConfigurable) {
  MachineConfig config = BaseConfig();
  config.topology = CpuTopology(1, 1, 2);
  config.cooling = CoolingProfile::Uniform(1, ThermalParams{});
  config.smt_corun_speed = 0.5;
  Machine machine(config);
  SimulationState& state = machine.state();
  const ProgramLibrary library(EnergyModel::Default());
  Task* a = state.Spawn(library.bitcnts());
  Task* b = state.Spawn(library.aluadd());
  machine.Run(1'000);
  EXPECT_NEAR(a->work_done_ticks(), 500.0, 60.0);
  EXPECT_NEAR(b->work_done_ticks(), 500.0, 60.0);
}

TEST(MachineConfigTest, SingleSiblingRunsFullSpeedOnSmt) {
  MachineConfig config = BaseConfig();
  config.topology = CpuTopology(1, 1, 2);
  config.cooling = CoolingProfile::Uniform(1, ThermalParams{});
  Machine machine(config);
  SimulationState& state = machine.state();
  const ProgramLibrary library(EnergyModel::Default());
  Task* a = state.Spawn(library.bitcnts());
  machine.Run(1'000);
  EXPECT_NEAR(a->work_done_ticks(), 1'000.0, 10.0);
}

TEST(MachineConfigTest, CustomTimesliceRespected) {
  MachineConfig config = BaseConfig();
  config.topology = CpuTopology(1, 1, 1);
  config.cooling = CoolingProfile::Uniform(1, ThermalParams{});
  config.timeslice_ticks = 20;
  Machine machine(config);
  SimulationState& state = machine.state();
  const ProgramLibrary library(EnergyModel::Default());
  Task* a = state.Spawn(library.bitcnts());
  Task* b = state.Spawn(library.memrw());
  machine.Run(200);
  // With 20-tick slices, both ran several rounds already.
  EXPECT_GT(a->work_done_ticks(), 50.0);
  EXPECT_GT(b->work_done_ticks(), 50.0);
}

TEST(MachineConfigTest, ThrottleHysteresisWidensDutyCycle) {
  auto throttle_flips = [](double hysteresis) {
    MachineConfig config = BaseConfig();
    config.topology = CpuTopology(1, 1, 1);
    config.cooling = CoolingProfile::Uniform(1, ThermalParams{});
    config.explicit_max_power_physical = 40.0;
    config.throttle_hysteresis_watts = hysteresis;
    config.throttling_enabled = true;
    config.sched = EnergySchedConfig::Baseline();
    Machine machine(config);
    SimulationState& state = machine.state();
    const ProgramLibrary library(EnergyModel::Default());
    state.Spawn(library.bitcnts());
    int flips = 0;
    bool last = false;
    for (int i = 0; i < 120'000; ++i) {
      machine.Run(1);
      const bool now = state.package_throttle(0).throttled();
      if (now != last) {
        ++flips;
      }
      last = now;
    }
    return flips;
  };
  // A wider hysteresis band flips less often.
  EXPECT_GT(throttle_flips(0.2), throttle_flips(3.0));
}

TEST(MachineConfigTest, NoRespawnRetiresTask) {
  MachineConfig config = BaseConfig();
  config.respawn_completed = false;
  Machine machine(config);
  SimulationState& state = machine.state();
  const ProgramLibrary library(EnergyModel::Default());
  Task* task = state.Spawn(library.short_hot());  // 500 ticks of work
  machine.Run(1'000);
  EXPECT_EQ(task->state(), TaskState::kFinished);
  EXPECT_EQ(task->completions(), 0);
  EXPECT_EQ(SimulationState::TaskCpu(*task), kInvalidCpu);
  // The CPU is free again.
  EXPECT_TRUE(state.runqueue(task->cpu()).Idle());
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
