// Quiescent-span skip-ahead: the engine's Advance must be bit-identical to
// naive per-tick stepping - same end state, same traces, same CSVs - for
// every builtin scenario (governed and ungoverned), and the fast path must
// actually engage on sparse workloads (fewer observer invocations than
// ticks, not just equal results).

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/counters/energy_model.h"
#include "src/sim/csv_export.h"
#include "src/sim/experiment.h"
#include "src/sim/experiment_runner.h"
#include "src/sim/machine.h"
#include "src/sim/scenario.h"
#include "src/thermal/cooling_profile.h"
#include "src/topo/cpu_topology.h"

namespace eas {
namespace {

// Bitwise equality throughout: skip-ahead promises the identical floating
// point values, not merely close ones, so plain == (not near-comparisons)
// is the assertion everywhere below.
void ExpectBitIdentical(const RunResult& a, const RunResult& b, const std::string& label) {
  EXPECT_EQ(a.work_done_ticks, b.work_done_ticks) << label;
  EXPECT_EQ(a.migrations, b.migrations) << label;
  EXPECT_EQ(a.completions, b.completions) << label;
  ASSERT_EQ(a.throttled_fraction.size(), b.throttled_fraction.size()) << label;
  for (std::size_t i = 0; i < a.throttled_fraction.size(); ++i) {
    EXPECT_EQ(a.throttled_fraction[i], b.throttled_fraction[i]) << label << " cpu" << i;
  }
  ASSERT_EQ(a.average_frequency.size(), b.average_frequency.size()) << label;
  for (std::size_t i = 0; i < a.average_frequency.size(); ++i) {
    EXPECT_EQ(a.average_frequency[i], b.average_frequency[i]) << label << " cpu" << i;
  }
  EXPECT_EQ(a.pstate_residency, b.pstate_residency) << label;
  for (const auto* pair : {&a.thermal_power, &b.thermal_power}) {
    ASSERT_GT(pair->size(), 0u) << label;
  }
  ASSERT_EQ(a.thermal_power.size(), b.thermal_power.size()) << label;
  for (std::size_t s = 0; s < a.thermal_power.size(); ++s) {
    const Series& sa = a.thermal_power.at(s);
    const Series& sb = b.thermal_power.at(s);
    ASSERT_EQ(sa.size(), sb.size()) << label;
    for (std::size_t i = 0; i < sa.size(); ++i) {
      EXPECT_EQ(sa.tick_at(i), sb.tick_at(i)) << label;
      EXPECT_EQ(sa.value_at(i), sb.value_at(i)) << label;
    }
  }
  ASSERT_EQ(a.temperature.size(), b.temperature.size()) << label;
  for (std::size_t s = 0; s < a.temperature.size(); ++s) {
    const Series& sa = a.temperature.at(s);
    const Series& sb = b.temperature.at(s);
    ASSERT_EQ(sa.size(), sb.size()) << label;
    for (std::size_t i = 0; i < sa.size(); ++i) {
      EXPECT_EQ(sa.value_at(i), sb.value_at(i)) << label;
    }
  }
  // The exported summary is the user-facing artifact: byte equality is the
  // contract eastool's CSV consumers rely on.
  EXPECT_EQ(RunSummaryToCsv(a), RunSummaryToCsv(b)) << label;
}

ExperimentSpec ShortenedSpec(const std::string& scenario, bool skip_ahead) {
  ExperimentSpec spec = ScenarioRegistry::Global().BuildOrThrow(scenario).ToExperimentSpec();
  spec.options.duration_ticks = 4'000;
  spec.options.sample_interval_ticks = 500;
  // Oracle weights skip the calibration phase to keep the sweep fast.
  spec.config.estimator_weights = EnergyModel::Default().weights();
  spec.config.skip_ahead = skip_ahead;
  return spec;
}

TEST(SkipAheadTest, EveryBuiltinScenarioBitIdentical) {
  // Governed scenarios exercise the per-tick reduced kernel, ungoverned
  // ones the closed-form fast path; both must be invisible in the results.
  for (const std::string& name : ScenarioRegistry::Global().Names()) {
    const ExperimentSpec on = ShortenedSpec(name, /*skip_ahead=*/true);
    const ExperimentSpec off = ShortenedSpec(name, /*skip_ahead=*/false);
    Experiment with_skip(on.config, on.options);
    Experiment without_skip(off.config, off.options);
    const RunResult a = with_skip.Run(on.workload);
    const RunResult b = without_skip.Run(off.workload);
    ExpectBitIdentical(a, b, name);
  }
}

TEST(SkipAheadTest, RunnerSweepCsvIdenticalAcrossThreadsAndModes) {
  // The whole catalogue through the runner at 1/2/8 threads, skip-ahead on
  // and off: all six sweeps must export byte-identical summary CSVs per
  // spec.
  const std::vector<std::string> names = ScenarioRegistry::Global().Names();
  auto sweep = [&names](bool skip_ahead, std::size_t threads) {
    std::vector<ExperimentSpec> specs;
    for (const std::string& name : names) {
      specs.push_back(ShortenedSpec(name, skip_ahead));
    }
    const std::vector<RunResult> results = ExperimentRunner(threads).RunAll(specs);
    std::vector<std::string> csvs;
    for (const RunResult& result : results) {
      csvs.push_back(RunSummaryToCsv(result));
    }
    return csvs;
  };

  const std::vector<std::string> reference = sweep(/*skip_ahead=*/true, 1);
  ASSERT_EQ(reference.size(), names.size());
  for (const bool skip_ahead : {true, false}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      const std::vector<std::string> csvs = sweep(skip_ahead, threads);
      ASSERT_EQ(csvs.size(), reference.size());
      for (std::size_t i = 0; i < csvs.size(); ++i) {
        EXPECT_EQ(csvs[i], reference[i])
            << names[i] << " skip_ahead=" << skip_ahead << " threads=" << threads;
      }
    }
  }
}

// Counts OnTick calls and never forces per-tick stepping: inside a fast
// span the engine only invokes observers at the span boundary, so the call
// count dropping below the tick count is direct evidence the bulk path ran.
class CountingObserver : public TickObserver {
 public:
  void OnTick(const SimulationState&) override { ++calls_; }
  Tick NextObservableTick(Tick) const override {
    return std::numeric_limits<Tick>::max();
  }
  std::int64_t calls() const { return calls_; }

 private:
  std::int64_t calls_ = 0;
};

Program MakeCronProgram(const EnergyModel& model) {
  EventRates signature{};
  signature.fill(1.0);
  Phase burst;
  burst.rates = model.RatesForTargetPower(signature, 35.0);
  burst.mean_duration = 12;
  burst.mean_sleep_after = 4'000;
  return Program("cron", 0xc407, {burst}, /*total_work_ticks=*/0);
}

// The default 8-package box, or `topology` (an eastool topology spec) cooled
// the way request resolution cools it: the paper's per-package cooling on 8
// packages, uniform cooling otherwise.
MachineConfig SparseConfig(const std::string& topology) {
  MachineConfig config;  // ungoverned, throttle off
  config.estimator_weights = EnergyModel::Default().weights();
  if (!topology.empty()) {
    std::string error;
    config.topology = *ParseTopologySpec(topology, &error);
    const std::size_t physical = config.topology.num_physical();
    config.cooling = physical == 8 ? CoolingProfile::PaperXSeries445()
                                   : CoolingProfile::Uniform(physical, ThermalParams{});
  }
  return config;
}

// Runs `tasks` cron tasks for `ticks` ticks with skip-ahead on and off: the
// fast path must engage and the end states must match bit for bit.
void ExpectFastPathMatchesNaive(const std::string& topology, int tasks, Tick ticks) {
  const std::string label = (topology.empty() ? std::string("default") : topology) + ", " +
                            std::to_string(tasks) + " tasks";
  const Program cron = MakeCronProgram(EnergyModel::Default());
  MachineConfig skip_config = SparseConfig(topology);
  skip_config.skip_ahead = true;
  MachineConfig naive_config = skip_config;
  naive_config.skip_ahead = false;

  Machine skip_machine(skip_config);
  Machine naive_machine(naive_config);
  SimulationState& a = skip_machine.state();
  SimulationState& b = naive_machine.state();
  CountingObserver skip_observer;
  CountingObserver naive_observer;
  skip_machine.engine().AddObserver(&skip_observer);
  naive_machine.engine().AddObserver(&naive_observer);
  for (int i = 0; i < tasks; ++i) {
    a.Spawn(cron);
    b.Spawn(cron);
  }
  skip_machine.Run(ticks);
  naive_machine.Run(ticks);

  // Engagement: the naive loop observes every tick, the skip loop only
  // span boundaries plus the busy ticks - a mostly-sleeping workload must
  // collapse most of the run into spans.
  EXPECT_EQ(naive_observer.calls(), ticks) << label;
  EXPECT_LT(skip_observer.calls(), ticks / 2) << label;

  // And the end states still match bitwise, analog state included.
  EXPECT_EQ(a.now(), b.now()) << label;
  EXPECT_EQ(a.TotalWorkDone(), b.TotalWorkDone()) << label;
  EXPECT_EQ(a.TotalTaskEnergy(), b.TotalTaskEnergy()) << label;
  EXPECT_EQ(a.migration_count(), b.migration_count()) << label;
  for (std::size_t phys = 0; phys < a.num_physical(); ++phys) {
    EXPECT_EQ(a.Temperature(phys), b.Temperature(phys)) << label << " package " << phys;
    EXPECT_EQ(a.TruePower(phys), b.TruePower(phys)) << label << " package " << phys;
  }
  for (std::size_t cpu = 0; cpu < a.num_cpus(); ++cpu) {
    EXPECT_EQ(a.ThermalPower(static_cast<int>(cpu)), b.ThermalPower(static_cast<int>(cpu)))
        << label << " cpu " << cpu;
  }
}

TEST(SkipAheadTest, FastPathEngagesOnSparseWorkloadAndMatchesNaive) {
  // The default box, one package, odd package counts, SMT siblings, and a
  // CPU count that is not a multiple of the stepper's block width.
  for (const std::string topology : {"", "1:1:1", "1:3:1", "2:4:2", "3:3:1"}) {
    ExpectFastPathMatchesNaive(topology, /*tasks=*/3, /*ticks=*/50'000);
  }
}

TEST(SkipAheadTest, IdleMachineMatchesNaiveThroughFixedPoints) {
  // No tasks: the whole run is one span. The CPU averages start at their
  // fixed point (seeded at idle power) and are left untouched; the package
  // temperatures reach theirs ~310k ticks in, so the stepper's early exit is
  // what ends the span.
  ExpectFastPathMatchesNaive("", /*tasks=*/0, /*ticks=*/2'000'000);
}

}  // namespace
}  // namespace eas
