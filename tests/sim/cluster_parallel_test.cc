// The package-parallel tick pipeline's determinism contracts, at cluster
// scale and on degenerate machines:
//
//  - worker-count independence: every intra_run_threads value produces the
//    same bits, because package phases touch only their own shard and the
//    cross-package phases (lifecycle, balance) run sequentially in a fixed
//    order regardless of which worker ran which package;
//  - skip-ahead composes: the reduced quiescent kernels are sequential, so
//    turning skip-ahead off changes nothing;
//  - a task executes at most once per tick, even when lifecycle respawns it
//    onto a package later in the package order.
//
// Byte equality of the exported summary CSV is the assertion throughout -
// the same artifact eastool consumers diff.

#include <cstddef>
#include <string>

#include <gtest/gtest.h>

#include "src/api/run_request.h"
#include "src/counters/energy_model.h"
#include "src/sim/csv_export.h"
#include "src/sim/experiment.h"
#include "src/sim/scenario.h"

namespace eas {
namespace {

// The 512-CPU five-level scenario, shortened: the tick pipeline at real
// cluster width without the full 20k-tick duration.
ExperimentSpec ClusterSpec(std::size_t intra_threads, bool skip_ahead) {
  ExperimentSpec spec = ScenarioRegistry::Global().BuildOrThrow("datacenter-consolidation");
  spec.options.duration_ticks = 1'500;
  spec.options.sample_interval_ticks = 500;
  spec.config.estimator_weights = EnergyModel::Default().weights();
  spec.config.intra_run_threads = intra_threads;
  spec.config.skip_ahead = skip_ahead;
  return spec;
}

std::string SummaryCsv(const ExperimentSpec& spec) {
  Experiment experiment(spec.config, spec.options);
  return RunSummaryToCsv(experiment.Run(spec.workload));
}

TEST(ClusterParallelTest, ShardedWorkerCountIndependence) {
  const std::string one = SummaryCsv(ClusterSpec(1, /*skip_ahead=*/true));
  for (const std::size_t workers : {std::size_t{0}, std::size_t{2}, std::size_t{8}}) {
    EXPECT_EQ(one, SummaryCsv(ClusterSpec(workers, /*skip_ahead=*/true)))
        << "intra_run_threads=" << workers;
  }
}

TEST(ClusterParallelTest, ShardedSkipAheadBitIdentical) {
  EXPECT_EQ(SummaryCsv(ClusterSpec(2, /*skip_ahead=*/true)),
            SummaryCsv(ClusterSpec(2, /*skip_ahead=*/false)));
}

// Lifecycle-heavy runs (completions, respawns, sleeps), built through the
// request surface end to end: the pipeline must stay worker-count
// independent even when every tick runs the sequential lifecycle phase.
//  - a deep but narrow tree;
//  - five short tasks on the paper's non-SMT box under load-only
//    balancing, where respawn placement keeps moving a just-completed task
//    to an idle package later in the package order. Running lifecycle
//    before the later packages execute would let that task run twice in
//    one tick.
constexpr const char* kLifecycleRequests[] = {
    "topology = 2:2:2:2:2; workload = short:24; duration-s = 6; seed = 11",
    "workload = short:5; policy = load_only; duration-s = 10; seed = 3",
};

TEST(ClusterParallelTest, ShardedDeterministicUnderTaskLifecycle) {
  for (const std::string request : kLifecycleRequests) {
    std::string first;
    for (const std::size_t workers : {0, 1, 2, 3, 4}) {
      auto resolved = ResolveRunRequest(
          *ParseRunRequest(request + "; intra-threads = " + std::to_string(workers)));
      ASSERT_TRUE(resolved.ok()) << resolved.error().Render();
      ExperimentSpec spec = resolved->specs.front();
      spec.config.estimator_weights = EnergyModel::Default().weights();
      Experiment experiment(spec.config, spec.options);
      const RunResult result = experiment.Run(spec.workload);
      ASSERT_GT(result.completions, 0) << "workload must exercise the lifecycle phase: " << request;
      if (spec.config.topology.smt_per_physical() == 1) {
        // Without SMT a task does at most one tick of work per tick it
        // executes, so executing at most once per tick bounds the total.
        EXPECT_LE(result.work_done_ticks,
                  static_cast<double>(spec.workload.arrivals().size()) *
                      static_cast<double>(spec.options.duration_ticks))
            << request << "; intra_run_threads=" << workers;
      }
      const std::string csv = RunSummaryToCsv(result);
      if (first.empty()) {
        first = csv;
      } else {
        EXPECT_EQ(first, csv) << request << "; intra_run_threads=" << workers;
      }
    }
  }
}

TEST(ClusterParallelTest, ShardedRunsOnSinglePackageMachine) {
  // Degenerate width: one package, SMT only. The pool clamps to one worker
  // and the pipeline must still run (and agree with itself at any count).
  auto make = [](std::size_t workers) {
    auto resolved = ResolveRunRequest(
        *ParseRunRequest("topology = 1:1:2; workload = mixed:3; duration-s = 4; seed = 3; "
                         "intra-threads = " + std::to_string(workers)));
    EXPECT_TRUE(resolved.ok()) << resolved.error().Render();
    ExperimentSpec spec = resolved->specs.front();
    spec.config.estimator_weights = EnergyModel::Default().weights();
    Experiment experiment(spec.config, spec.options);
    return RunSummaryToCsv(experiment.Run(spec.workload));
  };
  EXPECT_EQ(make(1), make(8));
}

}  // namespace
}  // namespace eas
