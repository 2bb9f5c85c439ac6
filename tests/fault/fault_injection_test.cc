// Fault injection end to end: the FaultPhase's reactions (drain/re-place,
// emergency stepdown, hlt backstop, clamp floors), the offline tick ledger,
// the InvariantChecker's conservation sweep, and the determinism contracts
// (bit-identical across intra-worker counts and skip-ahead settings; a
// never-firing plan changes nothing but the fault columns).

#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/counters/energy_model.h"
#include "src/sim/experiment.h"
#include "src/sim/invariant_checker.h"
#include "src/sim/machine.h"
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
  // Generous budget: these tests exercise fault mechanics, not policies.
  config.explicit_max_power_physical = 120.0;
  config.sched = EnergySchedConfig::EnergyAware();
  config.estimator_weights = EnergyModel::Default().weights();
  return config;
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  FaultInjectionTest() : library_(EnergyModel::Default()) {}
  ProgramLibrary library_;
};

TEST_F(FaultInjectionTest, OfflineDrainsTheRunqueueAndReplacesItsTasks) {
  MachineConfig config = SmallConfig();
  config.fault_spec = "off:1@100";
  Machine machine(config);
  SimulationState& state = machine.state();
  Task* a = state.Spawn(library_.bitcnts());
  Task* b = state.Spawn(library_.bitcnts());
  machine.Run(300);

  EXPECT_FALSE(state.CpuOnline(1));
  EXPECT_TRUE(state.CpuOnline(0));
  EXPECT_EQ(state.runqueue(1).nr_running(), 0u);
  // Both tasks survived the drain and landed on the surviving CPU.
  EXPECT_EQ(a->cpu(), 0);
  EXPECT_EQ(b->cpu(), 0);
  EXPECT_EQ(state.runqueue(0).nr_running(), 2u);
  EXPECT_EQ(state.faults_fired(), 1);
  EXPECT_EQ(state.offline_cpu_count(), 1);
}

TEST_F(FaultInjectionTest, OnlineRestoresCapacityWithExactAccounting) {
  MachineConfig config = SmallConfig();
  config.fault_spec = "off:1@100,on:1@200";
  Machine machine(config);
  SimulationState& state = machine.state();
  state.Spawn(library_.bitcnts());
  state.Spawn(library_.bitcnts());
  machine.Run(2'000);

  EXPECT_TRUE(state.CpuOnline(1));
  EXPECT_EQ(state.offline_cpu_count(), 0);
  // The ledger accumulates exactly one offline CPU for exactly the ticks of
  // the offline window: the off event at 100 counts that tick, the on event
  // at 200 stops the count before it.
  EXPECT_EQ(state.offline_cpu_ticks(), 100);
  EXPECT_EQ(state.faults_fired(), 2);
  // Balancing repopulated the restored CPU: with two hot tasks and two
  // CPUs, both queues are busy again.
  EXPECT_EQ(state.runqueue(0).nr_running(), 1u);
  EXPECT_EQ(state.runqueue(1).nr_running(), 1u);
}

TEST_F(FaultInjectionTest, LastOnlineCpuRefusesToGoOffline) {
  MachineConfig config = SmallConfig();
  config.fault_spec = "off:0@50,off:1@60";
  Machine machine(config);
  SimulationState& state = machine.state();
  Task* task = state.Spawn(library_.bitcnts());
  machine.Run(200);

  // CPU 0 went down; the plan's attempt on CPU 1 - the last online CPU -
  // was refused, so the machine never loses its ability to run work.
  EXPECT_FALSE(state.CpuOnline(0));
  EXPECT_TRUE(state.CpuOnline(1));
  EXPECT_EQ(state.offline_cpu_count(), 1);
  EXPECT_EQ(state.faults_fired(), 1);  // the refused offline does not count
  EXPECT_EQ(task->cpu(), 1);
  EXPECT_GT(task->work_done_ticks(), 0.0);
}

TEST_F(FaultInjectionTest, ThermalSpikeForcesTheGovernorToTheDeepestPState) {
  MachineConfig config = SmallConfig();
  config.frequency_governor = "thermal-stepdown";
  config.fault_spec = "spike:0@50:15:200";
  Machine machine(config);
  SimulationState& state = machine.state();
  state.Spawn(library_.memrw());  // light load: the governor would sit at P0
  const double before = state.Temperature(0);
  machine.Run(100);  // now = 100, inside the emergency window [50, 250)

  EXPECT_TRUE(state.EmergencyActive(0));
  EXPECT_EQ(state.freq_domain(0).current(), state.freq_domain(0).table().deepest());
  EXPECT_GT(state.Temperature(0), before);
  // The other package is untouched.
  EXPECT_FALSE(state.EmergencyActive(1));

  machine.Run(300);  // past the window: the governor is free again
  EXPECT_FALSE(state.EmergencyActive(0));
}

TEST_F(FaultInjectionTest, ThermalSpikeEngagesTheHltBackstopWhenUngoverned) {
  MachineConfig config = SmallConfig();
  // No governor and no thermal throttling configured: the emergency has no
  // frequency ladder to descend, so the hlt gate is the backstop.
  config.throttling_enabled = false;
  config.fault_spec = "spike:0@50:20:300";
  Machine machine(config);
  SimulationState& state = machine.state();
  state.Spawn(library_.bitcnts());
  machine.Run(1'000);

  EXPECT_GT(state.package_throttle(0).ThrottledFraction(), 0.0);
  EXPECT_EQ(state.package_throttle(1).ThrottledFraction(), 0.0);
}

TEST_F(FaultInjectionTest, ClampFloorsThePStateForItsWindow) {
  MachineConfig config = SmallConfig();
  config.frequency_governor = "thermal-stepdown";
  config.fault_spec = "clamp:0@50:2:200";
  Machine machine(config);
  SimulationState& state = machine.state();
  state.Spawn(library_.memrw());  // light load: governor alone would pick P0
  machine.Run(100);  // inside the clamp window

  EXPECT_TRUE(state.ClampActive(0));
  EXPECT_GE(state.freq_domain(0).current(), 2u);

  machine.Run(300);  // window expired
  EXPECT_FALSE(state.ClampActive(0));
}

TEST_F(FaultInjectionTest, ClampRestoresAnUngovernedDomainOnExpiry) {
  MachineConfig config = SmallConfig();
  config.fault_spec = "clamp:0@50:3:100";
  Machine machine(config);
  SimulationState& state = machine.state();
  state.Spawn(library_.bitcnts());
  machine.Run(100);  // inside the window: the ungoverned domain sits at the floor
  EXPECT_EQ(state.freq_domain(0).current(), 3u);
  machine.Run(100);  // expired: the FaultPhase restores P0 (the ungoverned rest state)
  EXPECT_EQ(state.freq_domain(0).current(), 0u);
}

TEST_F(FaultInjectionTest, InvariantCheckerPassesACleanChaosRun) {
  MachineConfig config = SmallConfig();
  config.fault_spec = "churn:4@800:9,spike:0@100:10:200,clamp:1@300:2:200";
  Machine machine(config);
  SimulationState& state = machine.state();
  InvariantChecker checker(state);
  machine.engine().AddObserver(&checker);
  state.Spawn(library_.bitcnts());
  state.Spawn(library_.memrw());
  machine.Run(1'000);
  machine.engine().RemoveObserver(&checker);
  // Faulted runs never take the closed-form skip path, so the checker saw
  // every tick.
  EXPECT_EQ(checker.ticks_checked(), 1'000);
}

TEST_F(FaultInjectionTest, InvariantCheckerThrowsOnACorruptedQueue) {
  MachineConfig config = SmallConfig();
  config.fault_spec = "off:1@500000";  // arm the checker path; never fires here
  Machine machine(config);
  SimulationState& state = machine.state();
  Task* task = state.Spawn(library_.bitcnts());
  machine.Run(10);

  InvariantChecker checker(state);
  // Corrupt the bookkeeping: the task sits on one queue but claims another.
  task->set_cpu(task->cpu() == 0 ? 1 : 0);
  EXPECT_THROW(checker.OnTick(state), std::runtime_error);
}

// --- determinism contracts ---------------------------------------------------

RunResult RunChaos(std::size_t intra_threads, bool skip_ahead, const std::string& faults) {
  MachineConfig config;
  config.topology = CpuTopology(1, 2, 2);  // 2 packages, SMT: 4 logical CPUs
  ThermalParams params;
  params.resistance = 0.3;
  params.capacitance = 40.0;
  config.cooling = CoolingProfile::Uniform(2, params);
  config.explicit_max_power_physical = 60.0;
  config.sched = EnergySchedConfig::EnergyAware();
  config.estimator_weights = EnergyModel::Default().weights();
  config.frequency_governor = "thermal-stepdown";
  config.intra_run_threads = intra_threads;
  config.skip_ahead = skip_ahead;
  config.fault_spec = faults;

  Experiment::Options options;
  options.duration_ticks = 4'000;
  Experiment experiment(config, options);
  ProgramLibrary library(EnergyModel::Default());
  Workload workload;
  workload.Add(library.bitcnts());
  workload.Add(library.memrw());
  workload.Add(library.pushpop());
  workload.Add(library.sshd(), /*tick=*/700);
  workload.Add(library.sshd(), /*tick=*/1'400);
  return experiment.Run(workload);
}

void ExpectBitIdentical(const RunResult& a, const RunResult& b, const std::string& label) {
  // Bitwise equality, not near-equality: the fault layer promises identical
  // results for every worker count and skip-ahead setting.
  EXPECT_EQ(a.work_done_ticks, b.work_done_ticks) << label;
  EXPECT_EQ(a.migrations, b.migrations) << label;
  EXPECT_EQ(a.completions, b.completions) << label;
  EXPECT_EQ(a.faults_fired, b.faults_fired) << label;
  EXPECT_EQ(a.offline_cpu_ticks, b.offline_cpu_ticks) << label;
  EXPECT_EQ(a.throttled_fraction, b.throttled_fraction) << label;
  EXPECT_EQ(a.average_frequency, b.average_frequency) << label;
  EXPECT_EQ(a.pstate_residency, b.pstate_residency) << label;
  ASSERT_EQ(a.thermal_power.size(), b.thermal_power.size()) << label;
  for (std::size_t s = 0; s < a.thermal_power.size(); ++s) {
    const Series& sa = a.thermal_power.at(s);
    const Series& sb = b.thermal_power.at(s);
    ASSERT_EQ(sa.size(), sb.size()) << label;
    for (std::size_t i = 0; i < sa.size(); ++i) {
      EXPECT_EQ(sa.value_at(i), sb.value_at(i)) << label << " sample " << i;
    }
  }
}

TEST_F(FaultInjectionTest, ChaosIsBitIdenticalAcrossIntraWorkersAndSkipAhead) {
  const std::string faults = "churn:4@3000:17,spike:0@400:12:600,clamp:1@900:2:800,off:3@200,on:3@1200";
  const RunResult base = RunChaos(0, /*skip_ahead=*/true, faults);
  ASSERT_TRUE(base.faults_fired.has_value());
  EXPECT_GT(*base.faults_fired, 0);
  ExpectBitIdentical(base, RunChaos(1, true, faults), "intra 1");
  ExpectBitIdentical(base, RunChaos(3, true, faults), "intra 3");
  ExpectBitIdentical(base, RunChaos(0, false, faults), "skip-ahead off");
  ExpectBitIdentical(base, RunChaos(3, false, faults), "intra 3, skip-ahead off");
}

TEST_F(FaultInjectionTest, NeverFiringPlanChangesNothingButTheFaultColumns) {
  // A plan whose only event sits past the horizon arms the fault machinery
  // (slow tick path, queue bounds on skip spans) but must not change one
  // bit of the physics or scheduling results.
  const RunResult faulted = RunChaos(0, true, "off:1@50000000");
  const RunResult clean = RunChaos(0, true, "");
  EXPECT_EQ(faulted.work_done_ticks, clean.work_done_ticks);
  EXPECT_EQ(faulted.migrations, clean.migrations);
  EXPECT_EQ(faulted.completions, clean.completions);
  EXPECT_EQ(faulted.throttled_fraction, clean.throttled_fraction);
  EXPECT_EQ(faulted.average_frequency, clean.average_frequency);
  EXPECT_EQ(faulted.pstate_residency, clean.pstate_residency);
  ASSERT_EQ(faulted.thermal_power.size(), clean.thermal_power.size());
  for (std::size_t s = 0; s < faulted.thermal_power.size(); ++s) {
    const Series& sa = faulted.thermal_power.at(s);
    const Series& sb = clean.thermal_power.at(s);
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t i = 0; i < sa.size(); ++i) {
      EXPECT_EQ(sa.value_at(i), sb.value_at(i)) << "sample " << i;
    }
  }
  // The only difference: the faulted run reports its (zero-fired) columns.
  ASSERT_TRUE(faulted.faults_fired.has_value());
  EXPECT_EQ(*faulted.faults_fired, 0);
  EXPECT_FALSE(clean.faults_fired.has_value());
}

}  // namespace
}  // namespace eas
