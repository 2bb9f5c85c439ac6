// The frequency layer end to end: the "none" governor must be bit-identical
// to the pre-DVFS engine (golden trace against the scan reference, which has
// no frequency phase), governed runs must actually scale progress and
// energy, the two DVFS scenarios must be deterministic for any runner
// thread count, and unknown governor names must fail fast.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "src/sim/experiment_runner.h"
#include "src/sim/machine.h"
#include "src/sim/scan_reference.h"
#include "src/sim/scenario.h"
#include "src/sim/simulation_engine.h"
#include "src/workloads/programs.h"
#include "src/workloads/workload_builder.h"

namespace eas {
namespace {

void ExpectStatesBitIdentical(SimulationState& a, SimulationState& b) {
  ASSERT_EQ(a.now(), b.now());
  EXPECT_EQ(a.migration_count(), b.migration_count());
  EXPECT_EQ(a.TotalWorkDone(), b.TotalWorkDone());
  EXPECT_EQ(a.TotalTaskEnergy(), b.TotalTaskEnergy());
  EXPECT_EQ(a.TotalCompletions(), b.TotalCompletions());
  for (std::size_t cpu = 0; cpu < a.num_cpus(); ++cpu) {
    const int c = static_cast<int>(cpu);
    EXPECT_EQ(a.ThermalPower(c), b.ThermalPower(c)) << "cpu " << cpu;
    EXPECT_EQ(a.throttle(c).ThrottledFraction(), b.throttle(c).ThrottledFraction())
        << "cpu " << cpu;
  }
  for (std::size_t phys = 0; phys < a.num_physical(); ++phys) {
    EXPECT_EQ(a.Temperature(phys), b.Temperature(phys)) << "phys " << phys;
    EXPECT_EQ(a.TruePower(phys), b.TruePower(phys)) << "phys " << phys;
  }
}

TEST(FreqPipelineTest, NoneGovernorGoldenTraceMatchesScanReference) {
  // paper-hot-task runs with hlt throttling enforced, so this pins the
  // ThrottleGate -> FrequencyPhase -> SchedTick ordering: with the "none"
  // governor the frequency phase must not perturb a single bit of the
  // throttled pipeline the scan reference (which predates the phase) drives.
  ScenarioSpec spec = ScenarioRegistry::Global().BuildOrThrow("paper-hot-task");
  ASSERT_EQ(spec.config.frequency_governor, "none");
  spec.config.estimator_weights = EnergyModel::Default().weights();

  SimulationState engine_state(spec.config);
  SimulationState scan_state(spec.config);
  SimulationEngine engine(spec.config.sched);
  ScanReferenceStepper scan(spec.config.sched);
  for (const TaskArrival& arrival : spec.workload.arrivals()) {
    engine_state.Spawn(*arrival.program, arrival.nice);
    scan_state.Spawn(*arrival.program, arrival.nice);
  }
  for (Tick t = 0; t < 10'000; ++t) {
    engine.Tick(engine_state);
    scan.Step(scan_state);
  }
  ExpectStatesBitIdentical(engine_state, scan_state);
  // And the none governor left no residency statistics behind.
  for (std::size_t phys = 0; phys < engine_state.num_physical(); ++phys) {
    EXPECT_EQ(engine_state.freq_domain(phys).total_ticks(), 0) << phys;
    EXPECT_EQ(engine_state.freq_domain(phys).current(), 0u) << phys;
  }
}

TEST(FreqPipelineTest, ThermalStepdownScalesProgressAndEnergy) {
  // Twin states, same seed, one governed: under a budget the workload
  // breaches, the governed machine must run strictly less work on strictly
  // less energy - frequency flowed through execution speed and the
  // estimator alike.
  MachineConfig config;
  config.topology = CpuTopology(1, 2, 1);
  config.cooling = CoolingProfile::Uniform(2, ThermalParams{});
  config.explicit_max_power_physical = 30.0;  // bitcnts runs ~61 W: breached
  config.estimator_weights = EnergyModel::Default().weights();
  config.seed = 11;
  MachineConfig governed = config;
  governed.frequency_governor = "thermal-stepdown";

  const ProgramLibrary library(EnergyModel::Default());
  Machine baseline(config);
  Machine dvfs(governed);
  SimulationState& baseline_state = baseline.state();
  SimulationState& dvfs_state = dvfs.state();
  baseline_state.Spawn(library.bitcnts());
  baseline_state.Spawn(library.bitcnts());
  dvfs_state.Spawn(library.bitcnts());
  dvfs_state.Spawn(library.bitcnts());
  baseline.Run(20'000);
  dvfs.Run(20'000);

  EXPECT_LT(dvfs_state.TotalWorkDone(), baseline_state.TotalWorkDone());
  EXPECT_LT(dvfs_state.TotalTaskEnergy(), baseline_state.TotalTaskEnergy());
  for (std::size_t phys = 0; phys < dvfs_state.num_physical(); ++phys) {
    const FrequencyDomain& domain = dvfs_state.freq_domain(phys);
    EXPECT_EQ(domain.total_ticks(), 20'000) << phys;
    EXPECT_LT(domain.AverageFrequency(), 1.0) << phys;
  }
}

TEST(FreqPipelineTest, DvfsVsThrottleScenarioCapsWithoutHalting) {
  ScenarioSpec spec = ScenarioRegistry::Global().BuildOrThrow("dvfs-vs-throttle");
  spec.options.duration_ticks = 60'000;
  spec.config.estimator_weights = EnergyModel::Default().weights();
  Experiment experiment(spec.config, spec.options);
  const RunResult result = experiment.Run(spec.workload);

  // The cap is enforced by frequency, not hlt: some package left P0, nobody
  // was halted, and the DVFS columns are populated and well-formed.
  EXPECT_DOUBLE_EQ(result.AverageThrottledFraction(), 0.0);
  ASSERT_EQ(result.average_frequency.size(), spec.config.topology.num_logical());
  ASSERT_EQ(result.pstate_residency.size(), spec.config.topology.num_logical());
  bool any_scaled = false;
  for (std::size_t cpu = 0; cpu < result.average_frequency.size(); ++cpu) {
    EXPECT_GT(result.average_frequency[cpu], 0.0) << cpu;
    EXPECT_LE(result.average_frequency[cpu], 1.0) << cpu;
    any_scaled = any_scaled || result.average_frequency[cpu] < 1.0;
    double sum = 0.0;
    for (double fraction : result.pstate_residency[cpu]) {
      sum += fraction;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9) << cpu;
  }
  EXPECT_TRUE(any_scaled);
  // The per-package frequency trace rode along on the sampling grid.
  ASSERT_EQ(result.frequency.size(), spec.config.topology.num_physical());
  EXPECT_GT(result.frequency.at(0).size(), 0u);
}

TEST(FreqPipelineTest, GovernedScenariosDeterministicAcrossThreads) {
  for (const char* name : {"dvfs-vs-throttle", "governor-comparison"}) {
    ExperimentSpec base = ScenarioRegistry::Global().BuildOrThrow(name).ToExperimentSpec();
    base.options.duration_ticks = 4'000;
    base.config.estimator_weights = EnergyModel::Default().weights();
    const std::vector<ExperimentSpec> specs(3, base);

    const std::vector<RunResult> baseline = ExperimentRunner(1).RunAll(specs);
    ASSERT_EQ(baseline.size(), specs.size());
    for (std::size_t threads : {2u, 8u}) {
      const std::vector<RunResult> results = ExperimentRunner(threads).RunAll(specs);
      for (std::size_t i = 0; i < results.size(); ++i) {
        const std::string label =
            std::string(name) + " @" + std::to_string(threads) + " threads, spec";
        EXPECT_EQ(results[i].work_done_ticks, baseline[i].work_done_ticks) << label << i;
        EXPECT_EQ(results[i].migrations, baseline[i].migrations) << label << i;
        EXPECT_EQ(results[i].completions, baseline[i].completions) << label << i;
        ASSERT_EQ(results[i].average_frequency.size(), baseline[i].average_frequency.size())
            << label << i;
        for (std::size_t cpu = 0; cpu < results[i].average_frequency.size(); ++cpu) {
          EXPECT_EQ(results[i].average_frequency[cpu], baseline[i].average_frequency[cpu])
              << label << i << " cpu " << cpu;
          ASSERT_EQ(results[i].pstate_residency[cpu], baseline[i].pstate_residency[cpu])
              << label << i << " cpu " << cpu;
        }
      }
    }
  }
}

TEST(FreqPipelineTest, UnknownGovernorFailsFastFromMachine) {
  MachineConfig config;
  config.topology = CpuTopology(1, 1, 1);
  config.cooling = CoolingProfile::Uniform(1, ThermalParams{});
  config.estimator_weights = EnergyModel::Default().weights();
  config.frequency_governor = "warp-speed";
  EXPECT_THROW(Machine machine(config), std::invalid_argument);
}

TEST(FreqPipelineTest, UnknownGovernorThrowsOnEveryEngineTick) {
  // Driving the engine directly bypasses Machine's fail-fast validation;
  // the lazy phase must throw on the first tick and, if the caller catches
  // and ticks again, throw again rather than run over half-built state.
  MachineConfig config;
  config.topology = CpuTopology(1, 1, 1);
  config.cooling = CoolingProfile::Uniform(1, ThermalParams{});
  config.estimator_weights = EnergyModel::Default().weights();
  config.frequency_governor = "warp-speed";
  SimulationState state(config);
  SimulationEngine engine(config.sched);
  EXPECT_THROW(engine.Tick(state), std::invalid_argument);
  EXPECT_THROW(engine.Tick(state), std::invalid_argument);
}

}  // namespace
}  // namespace eas
