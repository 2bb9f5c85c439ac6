// Energy/thermal accounting invariants of the machine: SMT attribution sums
// to package power, wake affinity, and throttle accounting semantics.

#include <gtest/gtest.h>

#include "src/sim/machine.h"
#include "src/workloads/programs.h"

namespace eas {
namespace {

TEST(AccountingTest, SmtSiblingAttributionSumsToPackagePower) {
  // The per-logical thermal powers of a package must converge to the
  // package's true electrical power - Section 4.7 relies on this sum for
  // the hot-task trigger.
  MachineConfig config;
  config.topology = CpuTopology(1, 1, 2);
  config.cooling = CoolingProfile::Uniform(1, ThermalParams{});
  config.explicit_max_power_physical = 200.0;
  config.estimator_weights = EnergyModel::Default().weights();
  Machine machine(config);
  SimulationState& state = machine.state();
  const ProgramLibrary library(EnergyModel::Default());
  state.Spawn(library.bitcnts());
  state.Spawn(library.memrw());
  machine.Run(90'000);  // >> tau

  const double sum = state.ThermalPower(0) + state.ThermalPower(1);
  EXPECT_NEAR(sum, state.TruePower(0), state.TruePower(0) * 0.05);
}

TEST(AccountingTest, IdleSiblingGetsHaltShare) {
  MachineConfig config;
  config.topology = CpuTopology(1, 1, 2);
  config.cooling = CoolingProfile::Uniform(1, ThermalParams{});
  config.explicit_max_power_physical = 200.0;
  config.estimator_weights = EnergyModel::Default().weights();
  Machine machine(config);
  SimulationState& state = machine.state();
  const ProgramLibrary library(EnergyModel::Default());
  Task* task = state.Spawn(library.bitcnts());
  machine.Run(90'000);
  const int busy = task->cpu();
  const int idle = busy == 0 ? 1 : 0;
  EXPECT_NEAR(state.ThermalPower(idle), 6.8, 0.5);
  EXPECT_GT(state.ThermalPower(busy), 45.0);
}

TEST(AccountingTest, SleepingTaskWakesOnSameCpu) {
  // Affinity scheduling (Section 4.1): wakeups go to the CPU the task last
  // ran on, keeping its cache warm.
  MachineConfig config;
  config.topology = CpuTopology(1, 2, 1);
  config.cooling = CoolingProfile::Uniform(2, ThermalParams{});
  config.explicit_max_power_physical = 200.0;
  config.estimator_weights = EnergyModel::Default().weights();
  config.sched = EnergySchedConfig::Baseline();
  Machine machine(config);
  SimulationState& state = machine.state();
  const ProgramLibrary library(EnergyModel::Default());
  Task* daemon = state.Spawn(library.bash());

  int wake_cpu_mismatches = 0;
  int sleeps = 0;
  int last_run_cpu = daemon->cpu();
  bool was_sleeping = false;
  for (int i = 0; i < 20'000; ++i) {
    machine.Run(1);
    const bool sleeping = daemon->state() == TaskState::kSleeping;
    if (sleeping && !was_sleeping) {
      ++sleeps;
    }
    if (!sleeping && was_sleeping) {
      if (daemon->cpu() != last_run_cpu) {
        ++wake_cpu_mismatches;
      }
    }
    if (daemon->state() == TaskState::kRunning) {
      last_run_cpu = daemon->cpu();
    }
    was_sleeping = sleeping;
  }
  ASSERT_GT(sleeps, 5);
  EXPECT_EQ(wake_cpu_mismatches, 0);
}

TEST(AccountingTest, ThrottleStatsOnlyCountBlockedWork) {
  // A logical CPU with nothing to run accumulates no throttle time even if
  // its package is halted (Table 3 semantics).
  MachineConfig config;
  config.topology = CpuTopology(1, 1, 2);
  config.cooling = CoolingProfile::Uniform(1, ThermalParams{});
  config.explicit_max_power_physical = 30.0;  // force throttling
  config.throttling_enabled = true;
  config.sched = EnergySchedConfig::Baseline();
  config.estimator_weights = EnergyModel::Default().weights();
  Machine machine(config);
  SimulationState& state = machine.state();
  const ProgramLibrary library(EnergyModel::Default());
  Task* task = state.Spawn(library.bitcnts());
  machine.Run(120'000);
  const int busy = task->cpu();
  const int idle = busy == 0 ? 1 : 0;
  EXPECT_GT(state.throttle(busy).ThrottledFraction(), 0.3);
  EXPECT_DOUBLE_EQ(state.throttle(idle).ThrottledFraction(), 0.0);
}

TEST(AccountingTest, TrueEnergyConservedAcrossIdleAndBusy) {
  // Integrated true power of an idle package equals halt power exactly.
  MachineConfig config;
  config.topology = CpuTopology(1, 2, 1);
  config.cooling = CoolingProfile::Uniform(2, ThermalParams{});
  config.explicit_max_power_physical = 200.0;
  config.estimator_weights = EnergyModel::Default().weights();
  Machine machine(config);
  SimulationState& state = machine.state();
  const ProgramLibrary library(EnergyModel::Default());
  Task* task = state.Spawn(library.aluadd());
  double idle_energy = 0.0;
  const int busy_phys = static_cast<int>(state.config().topology.PhysicalOf(task->cpu()));
  const std::size_t idle_phys = busy_phys == 0 ? 1 : 0;
  for (int i = 0; i < 1'000; ++i) {
    machine.Run(1);
    idle_energy += state.TruePower(idle_phys) * kTickSeconds;
  }
  EXPECT_NEAR(idle_energy, 13.6 * 1.0, 1e-6);
}

}  // namespace
}  // namespace eas
