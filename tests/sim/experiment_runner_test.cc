// ExperimentRunner: deterministic parallel sweeps - same seeds give
// bit-identical RunResults for any thread count - plus spec ordering and the
// seed-sweep helper.

#include "src/sim/experiment_runner.h"

#include <gtest/gtest.h>

#include "src/workloads/programs.h"
#include "src/workloads/workload_builder.h"

namespace eas {
namespace {

MachineConfig QuickConfig(std::uint64_t seed) {
  MachineConfig config;
  config.topology = CpuTopology(1, 2, 1);
  config.cooling = CoolingProfile::Uniform(2, ThermalParams{});
  config.explicit_max_power_physical = 60.0;
  config.estimator_weights = EnergyModel::Default().weights();
  config.seed = seed;
  return config;
}

std::vector<ExperimentSpec> MakeSpecs(const ProgramLibrary& library) {
  std::vector<ExperimentSpec> specs;
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    ExperimentSpec spec;
    spec.name = "s" + std::to_string(seed);
    spec.config = QuickConfig(seed);
    // Alternate policy between specs so results differ visibly per slot.
    spec.config.sched =
        seed % 2 == 0 ? EnergySchedConfig::Baseline() : EnergySchedConfig::EnergyAware();
    spec.options.duration_ticks = 4'000;
    spec.options.sample_interval_ticks = 500;
    spec.workload = MixedWorkload(library, 1);
    specs.push_back(std::move(spec));
  }
  return specs;
}

void ExpectIdentical(const RunResult& a, const RunResult& b) {
  EXPECT_DOUBLE_EQ(a.work_done_ticks, b.work_done_ticks);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.completions, b.completions);
  ASSERT_EQ(a.thermal_power.size(), b.thermal_power.size());
  for (std::size_t s = 0; s < a.thermal_power.size(); ++s) {
    const Series& sa = a.thermal_power.at(s);
    const Series& sb = b.thermal_power.at(s);
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t i = 0; i < sa.size(); ++i) {
      EXPECT_EQ(sa.tick_at(i), sb.tick_at(i));
      EXPECT_DOUBLE_EQ(sa.value_at(i), sb.value_at(i));
    }
  }
}

TEST(ExperimentRunnerTest, ParallelSweepBitIdenticalToSerial) {
  const ProgramLibrary library(EnergyModel::Default());
  const std::vector<ExperimentSpec> specs = MakeSpecs(library);

  const std::vector<RunResult> serial = ExperimentRunner(1).RunAll(specs);
  const std::vector<RunResult> parallel = ExperimentRunner(4).RunAll(specs);

  ASSERT_EQ(serial.size(), specs.size());
  ASSERT_EQ(parallel.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ExpectIdentical(serial[i], parallel[i]);
  }
}

TEST(ExperimentRunnerTest, RepeatedParallelRunsIdentical) {
  const ProgramLibrary library(EnergyModel::Default());
  const std::vector<ExperimentSpec> specs = MakeSpecs(library);
  const std::vector<RunResult> first = ExperimentRunner(3).RunAll(specs);
  const std::vector<RunResult> second = ExperimentRunner(3).RunAll(specs);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ExpectIdentical(first[i], second[i]);
  }
}

TEST(ExperimentRunnerTest, ResultsKeepSpecOrder) {
  const ProgramLibrary library(EnergyModel::Default());
  // Distinguishable specs: different durations give different sample counts.
  std::vector<ExperimentSpec> specs;
  for (int i = 1; i <= 4; ++i) {
    ExperimentSpec spec;
    spec.name = "d" + std::to_string(i);
    spec.config = QuickConfig(7);
    spec.options.duration_ticks = static_cast<Tick>(i) * 1'000;
    spec.options.sample_interval_ticks = 100;
    spec.workload = std::vector<const Program*>{&library.bitcnts()};
    specs.push_back(std::move(spec));
  }
  const std::vector<RunResult> results = ExperimentRunner(4).RunAll(specs);
  for (int i = 1; i <= 4; ++i) {
    EXPECT_DOUBLE_EQ(results[static_cast<std::size_t>(i - 1)].duration_seconds,
                     static_cast<double>(i));
  }
}

TEST(ExperimentRunnerTest, EmptySweep) {
  EXPECT_TRUE(ExperimentRunner(4).RunAll({}).empty());
}

TEST(ExperimentRunnerTest, FailingSpecRethrownForAnyThreadCount) {
  const ProgramLibrary library(EnergyModel::Default());
  std::vector<ExperimentSpec> specs = MakeSpecs(library);
  specs[0].config.sched.balancer_name = "no_such_policy";  // spec 0 is energy-aware
  EXPECT_THROW(ExperimentRunner(1).RunAll(specs), std::invalid_argument);
  EXPECT_THROW(ExperimentRunner(4).RunAll(specs), std::invalid_argument);
}

TEST(ExperimentRunnerTest, LowestIndexedFailureWinsForAnyThreadCount) {
  const ProgramLibrary library(EnergyModel::Default());
  std::vector<ExperimentSpec> specs = MakeSpecs(library);
  specs[1].config.sched.balancer_name = "first_bad_policy";
  specs[4].config.sched.balancer_name = "second_bad_policy";
  for (std::size_t threads : {1u, 4u}) {
    try {
      ExperimentRunner(threads).RunAll(specs);
      ADD_FAILURE() << threads << " threads: no exception";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("\"first_bad_policy\""), std::string::npos)
          << threads << " threads: " << e.what();
    }
  }
}

TEST(ExperimentRunnerTest, ZeroThreadsPicksHardwareConcurrency) {
  EXPECT_GE(ExperimentRunner(0).num_threads(), 1u);
}

TEST(ExperimentRunnerTest, SeedSweepExpandsSeeds) {
  ExperimentSpec base;
  base.name = "base";
  base.config = QuickConfig(100);
  const std::vector<ExperimentSpec> specs = ExperimentRunner::SeedSweep(base, 3);
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].config.seed, 100u);
  EXPECT_EQ(specs[1].config.seed, 101u);
  EXPECT_EQ(specs[2].config.seed, 102u);
  EXPECT_EQ(specs[0].name, "base/seed100");
  EXPECT_EQ(specs[2].name, "base/seed102");
}

}  // namespace
}  // namespace eas
