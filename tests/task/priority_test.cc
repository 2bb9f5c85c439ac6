// Priorities and variable timeslices (paper Section 3.3: "Some operating
// systems, like Linux, give longer timeslices to tasks with higher
// priorities" - the motivation for the variable-period exponential average).

#include <gtest/gtest.h>

#include <stdexcept>

#include "src/sim/machine.h"
#include "src/workloads/programs.h"

namespace eas {
namespace {

TEST(PriorityTest, TimesliceScale) {
  EXPECT_EQ(Task::TimesliceForNice(0), 100);
  EXPECT_EQ(Task::TimesliceForNice(-20), 200);
  EXPECT_EQ(Task::TimesliceForNice(10), 50);
  EXPECT_EQ(Task::TimesliceForNice(19), 5);
}

TEST(PriorityTest, TimesliceNeverBelowFloor) {
  for (int nice = -20; nice <= 19; ++nice) {
    EXPECT_GE(Task::TimesliceForNice(nice), 5) << "nice " << nice;
  }
}

TEST(PriorityTest, TimesliceMonotoneInPriority) {
  for (int nice = -19; nice <= 19; ++nice) {
    EXPECT_LE(Task::TimesliceForNice(nice), Task::TimesliceForNice(nice - 1));
  }
}

MachineConfig OneCpuConfig() {
  MachineConfig config;
  config.topology = CpuTopology(1, 1, 1);
  config.cooling = CoolingProfile::Uniform(1, ThermalParams{});
  config.explicit_max_power_physical = 120.0;
  config.estimator_weights = EnergyModel::Default().weights();
  return config;
}

TEST(PriorityTest, SpawnRejectsNiceOutsideTheScale) {
  // The trace parser's range, enforced at Spawn for every caller: outside
  // it TimesliceForNice's scale is undefined.
  Machine machine(OneCpuConfig());
  SimulationState& state = machine.state();
  const ProgramLibrary library(EnergyModel::Default());
  EXPECT_THROW(state.Spawn(library.aluadd(), -21), std::invalid_argument);
  EXPECT_THROW(state.Spawn(library.aluadd(), 20), std::invalid_argument);
  EXPECT_TRUE(state.tasks().empty()) << "a rejected spawn must create nothing";
  EXPECT_EQ(state.Spawn(library.aluadd(), -20)->nice(), -20);
  EXPECT_EQ(state.Spawn(library.aluadd(), 19)->nice(), 19);
}

TEST(PriorityTest, HigherPriorityGetsLargerShare) {
  Machine machine(OneCpuConfig());
  SimulationState& state = machine.state();
  const ProgramLibrary library(EnergyModel::Default());
  Task* important = state.Spawn(library.aluadd(), /*nice=*/-10);  // 150-tick slices
  Task* nice_task = state.Spawn(library.aluadd(), /*nice=*/10);   // 50-tick slices
  machine.Run(40'000);
  // Round-robin with 150 vs 50 tick slices -> ~3:1 CPU share.
  const double ratio = important->work_done_ticks() / nice_task->work_done_ticks();
  EXPECT_NEAR(ratio, 3.0, 0.4);
}

TEST(PriorityTest, ProfilesComparableAcrossPriorities) {
  // The whole point of the variable-period average: a 50-tick-slice task and
  // a 150-tick-slice task running the same program must end up with the same
  // *power* profile, or cross-priority balancing decisions would be biased.
  Machine machine(OneCpuConfig());
  SimulationState& state = machine.state();
  const ProgramLibrary library(EnergyModel::Default());
  Task* important = state.Spawn(library.bitcnts(), /*nice=*/-10);
  Task* nice_task = state.Spawn(library.bitcnts(), /*nice=*/10);
  machine.Run(60'000);
  EXPECT_NEAR(important->profile().power(), nice_task->profile().power(), 2.0);
  EXPECT_NEAR(important->profile().power(), 61.0, 2.5);
}

TEST(PriorityTest, DefaultSpawnIsNiceZero) {
  Machine machine(OneCpuConfig());
  SimulationState& state = machine.state();
  const ProgramLibrary library(EnergyModel::Default());
  Task* task = state.Spawn(library.memrw());
  EXPECT_EQ(task->nice(), 0);
  EXPECT_EQ(task->timeslice_left(), 100);
}

}  // namespace
}  // namespace eas
