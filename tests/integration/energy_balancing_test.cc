// Integration: energy balancing on the full simulated paper machine
// (Section 6.1 scaled down to keep test runtime reasonable).

#include <gtest/gtest.h>

#include "src/sim/experiment.h"
#include "src/workloads/programs.h"
#include "src/workloads/workload_builder.h"

namespace eas {
namespace {

MachineConfig PaperConfig(bool smt, bool energy_aware) {
  MachineConfig config;
  config.topology = CpuTopology::PaperXSeries445(smt);
  config.cooling = CoolingProfile::PaperXSeries445();
  config.explicit_max_power_physical = 60.0;  // Section 6.1 setting
  config.throttling_enabled = false;
  config.sched = energy_aware ? EnergySchedConfig::EnergyAware() : EnergySchedConfig::Baseline();
  return config;
}

RunResult RunMixed(bool smt, bool energy_aware, Tick duration) {
  const ProgramLibrary library(EnergyModel::Default());
  Experiment::Options options;
  options.duration_ticks = duration;
  options.sample_interval_ticks = 1'000;
  Experiment experiment(PaperConfig(smt, energy_aware), options);
  return experiment.Run(MixedWorkload(library, smt ? 6 : 3));
}

TEST(EnergyBalancingIntegration, ReducesThermalPowerSpread) {
  const Tick duration = 120'000;  // 2 simulated minutes
  const RunResult baseline = RunMixed(false, false, duration);
  const RunResult balanced = RunMixed(false, true, duration);

  // Skip the exponential warm-up (~4 tau) before measuring the spread.
  const Tick measure_from = 50'000;
  const double spread_baseline = baseline.MaxThermalSpreadAfter(measure_from);
  const double spread_balanced = balanced.MaxThermalSpreadAfter(measure_from);

  // Figure 6 vs Figure 7: the baseline's curves diverge with the tasks'
  // energy characteristics; balancing keeps the band narrow.
  EXPECT_LT(spread_balanced, spread_baseline * 0.75)
      << "baseline spread " << spread_baseline << " W, balanced " << spread_balanced << " W";
  EXPECT_GT(spread_baseline, 8.0);
}

TEST(EnergyBalancingIntegration, MigrationCountsInPaperRegime) {
  const Tick duration = 120'000;
  const RunResult baseline = RunMixed(false, false, duration);
  const RunResult balanced = RunMixed(false, true, duration);

  // Paper (15 min): 3.3 migrations without, 32 with energy balancing. Our
  // 2-minute runs should show the same order: few baseline migrations, an
  // order of magnitude more with balancing - but not a migration storm.
  EXPECT_LT(baseline.migrations, 20);
  EXPECT_GT(balanced.migrations, baseline.migrations);
  EXPECT_LT(balanced.migrations, 200) << "ping-pong suspected";
}

TEST(EnergyBalancingIntegration, SmtVariantAlsoBalances) {
  const Tick duration = 90'000;
  const RunResult baseline = RunMixed(true, false, duration);
  const RunResult balanced = RunMixed(true, true, duration);
  const Tick measure_from = 50'000;
  // With 36 tasks over 16 logical CPUs a random placement can mix queues
  // fairly well by luck, so require the balanced band to be tight in
  // absolute terms and no worse than the baseline beyond noise.
  EXPECT_LT(balanced.MaxThermalSpreadAfter(measure_from), 12.0);
  EXPECT_LT(balanced.MaxThermalSpreadAfter(measure_from),
            baseline.MaxThermalSpreadAfter(measure_from) + 2.0);
}

TEST(EnergyBalancingIntegration, AllTasksMakeProgress) {
  const ProgramLibrary library(EnergyModel::Default());
  Experiment::Options options;
  options.duration_ticks = 60'000;
  Experiment experiment(PaperConfig(false, true), options);
  experiment.Run(MixedWorkload(library, 3));
  for (const auto& task : experiment.machine().state().tasks()) {
    const double total_work =
        task->work_done_ticks() + static_cast<double>(task->completions()) *
                                      static_cast<double>(task->program().total_work_ticks());
    EXPECT_GT(total_work, 1'000.0) << task->name() << "#" << task->id() << " starved";
  }
}

TEST(EnergyBalancingIntegration, LoadStaysBalanced) {
  const ProgramLibrary library(EnergyModel::Default());
  Experiment::Options options;
  options.duration_ticks = 60'000;
  Experiment experiment(PaperConfig(false, true), options);
  experiment.Run(MixedWorkload(library, 3));
  // 18 CPU-bound tasks on 8 CPUs: queues must stay within 2..3 tasks.
  const SimulationState& state = experiment.machine().state();
  for (std::size_t cpu = 0; cpu < state.num_cpus(); ++cpu) {
    const std::size_t nr = state.runqueue(static_cast<int>(cpu)).nr_running();
    EXPECT_GE(nr, 1u) << "cpu " << cpu;
    EXPECT_LE(nr, 4u) << "cpu " << cpu;
  }
}

}  // namespace
}  // namespace eas
