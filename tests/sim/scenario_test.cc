// ScenarioRegistry: built-in catalogue, lookup/unknown-name behaviour, and
// end-to-end determinism of scenarios through the parallel runner.

#include "src/sim/scenario.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace eas {
namespace {

TEST(ScenarioRegistryTest, GlobalHasAtLeastSixBuiltins) {
  const std::vector<std::string> names = ScenarioRegistry::Global().Names();
  EXPECT_GE(names.size(), 6u);
  for (const char* required :
       {"paper-mixed", "paper-homogeneous", "paper-hot-task", "short-tasks", "phase-shift",
        "poisson-open-loop", "server-consolidation", "trace-replay"}) {
    EXPECT_TRUE(ScenarioRegistry::Global().Contains(required)) << required;
  }
}

TEST(ScenarioRegistryTest, ListIsSortedWithDescriptions) {
  const auto infos = ScenarioRegistry::Global().List();
  ASSERT_GE(infos.size(), 6u);
  for (std::size_t i = 0; i < infos.size(); ++i) {
    EXPECT_FALSE(infos[i].description.empty()) << infos[i].name;
    if (i > 0) {
      EXPECT_LT(infos[i - 1].name, infos[i].name);
    }
  }
}

TEST(ScenarioRegistryTest, UnknownNameThrowsListingKnown) {
  try {
    ScenarioRegistry::Global().BuildOrThrow("no-such-scenario");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-scenario"), std::string::npos);
    EXPECT_NE(what.find("paper-mixed"), std::string::npos);
  }
}

TEST(ScenarioRegistryTest, RegisterRejectsDuplicates) {
  ScenarioRegistry registry;
  ASSERT_TRUE(registry.Register("x", "first", [] { return ScenarioSpec{}; }));
  EXPECT_FALSE(registry.Register("x", "second", [] { return ScenarioSpec{}; }));
  ASSERT_EQ(registry.List().size(), 1u);
  EXPECT_EQ(registry.List()[0].description, "first");
}

TEST(ScenarioRegistryTest, BuildStampsTheRegisteredName) {
  const ScenarioSpec spec = ScenarioRegistry::Global().BuildOrThrow("paper-mixed");
  EXPECT_EQ(spec.name, "paper-mixed");
  EXPECT_FALSE(spec.description.empty());
}

TEST(ScenarioRegistryTest, EveryBuiltinBuildsANonEmptyWorkload) {
  for (const std::string& name : ScenarioRegistry::Global().Names()) {
    const ScenarioSpec spec = ScenarioRegistry::Global().BuildOrThrow(name);
    EXPECT_FALSE(spec.workload.empty()) << name;
    EXPECT_GE(spec.config.topology.num_logical(), 1u) << name;
    for (const TaskArrival& arrival : spec.workload.arrivals()) {
      ASSERT_NE(arrival.program, nullptr) << name;
    }
  }
}

TEST(ScenarioRegistryTest, FactoriesAreDeterministic) {
  // Two builds of the same scenario must produce identical arrival
  // schedules (same ticks, same program names) - scenario workloads carry
  // their randomness in explicit seeds.
  for (const std::string& name : ScenarioRegistry::Global().Names()) {
    const ScenarioSpec a = ScenarioRegistry::Global().BuildOrThrow(name);
    const ScenarioSpec b = ScenarioRegistry::Global().BuildOrThrow(name);
    ASSERT_EQ(a.workload.size(), b.workload.size()) << name;
    for (std::size_t i = 0; i < a.workload.arrivals().size(); ++i) {
      const TaskArrival& ta = a.workload.arrivals()[i];
      const TaskArrival& tb = b.workload.arrivals()[i];
      EXPECT_EQ(ta.tick, tb.tick) << name;
      EXPECT_EQ(ta.program->name(), tb.program->name()) << name;
      EXPECT_EQ(ta.nice, tb.nice) << name;
    }
  }
}

void ExpectIdentical(const RunResult& a, const RunResult& b, const std::string& label) {
  EXPECT_DOUBLE_EQ(a.work_done_ticks, b.work_done_ticks) << label;
  EXPECT_EQ(a.migrations, b.migrations) << label;
  EXPECT_EQ(a.completions, b.completions) << label;
  ASSERT_EQ(a.thermal_power.size(), b.thermal_power.size()) << label;
  for (std::size_t s = 0; s < a.thermal_power.size(); ++s) {
    const Series& sa = a.thermal_power.at(s);
    const Series& sb = b.thermal_power.at(s);
    ASSERT_EQ(sa.size(), sb.size()) << label;
    for (std::size_t i = 0; i < sa.size(); ++i) {
      EXPECT_DOUBLE_EQ(sa.value_at(i), sb.value_at(i)) << label;
    }
  }
}

TEST(ScenarioRunTest, AllScenariosDeterministicAcrossThreadCounts) {
  // Every built-in scenario, shortened, through the runner at 1 vs 4
  // threads: results must be bit-identical per spec.
  std::vector<ExperimentSpec> specs;
  for (const std::string& name : ScenarioRegistry::Global().Names()) {
    ExperimentSpec spec = ScenarioRegistry::Global().BuildOrThrow(name).ToExperimentSpec();
    spec.options.duration_ticks = 3'000;
    spec.options.sample_interval_ticks = 500;
    // Oracle weights skip the calibration phase to keep the test fast.
    spec.config.estimator_weights = EnergyModel::Default().weights();
    specs.push_back(std::move(spec));
  }
  const std::vector<RunResult> serial = ExperimentRunner(1).RunAll(specs);
  const std::vector<RunResult> parallel = ExperimentRunner(4).RunAll(specs);
  ASSERT_EQ(serial.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ExpectIdentical(serial[i], parallel[i], specs[i].name);
  }
}

TEST(ScenarioRunTest, MidRunArrivalsSpawnTasks) {
  // The trace-replay scenario injects tasks after tick 0; shortening the run
  // below the first mid-run arrival must reduce the spawned task count.
  ScenarioSpec scenario = ScenarioRegistry::Global().BuildOrThrow("trace-replay");
  scenario.config.estimator_weights = EnergyModel::Default().weights();
  const std::size_t initial = scenario.workload.InitialTasks();
  ASSERT_LT(initial, scenario.workload.size());

  scenario.options.duration_ticks = 61'000;  // past the first bitcnts wave
  Experiment experiment(scenario.config, scenario.options);
  experiment.Run(scenario.workload);
  EXPECT_GT(experiment.machine().state().tasks().size(), initial);
  EXPECT_LT(experiment.machine().state().tasks().size(), scenario.workload.size());

  // Boundary: an arrival at exactly the end tick never spawns.
  scenario.options.duration_ticks = 60'000;  // == the first wave's tick
  Experiment boundary(scenario.config, scenario.options);
  boundary.Run(scenario.workload);
  EXPECT_EQ(boundary.machine().state().tasks().size(), initial);
}

}  // namespace
}  // namespace eas
