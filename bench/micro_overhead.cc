// Microbenchmarks: the per-tick / per-decision costs of the scheduler
// extensions. The paper argues the accounting and balancing overheads are
// negligible; these numbers quantify that for the simulator's
// implementation of the same algorithms.

#include <benchmark/benchmark.h>

#include <vector>

#include "src/base/rng.h"
#include "src/core/energy_balancer.h"
#include "src/core/initial_placement.h"
#include "src/counters/calibration.h"
#include "src/counters/energy_estimator.h"
#include "src/sim/machine.h"
#include "src/task/energy_profile.h"
#include "src/task/task.h"
#include "src/workloads/programs.h"
#include "src/workloads/workload_builder.h"

namespace {

void BM_EstimateDynamicEnergy(benchmark::State& state) {
  const eas::EnergyModel model = eas::EnergyModel::Default();
  const eas::EnergyEstimator estimator = eas::EnergyEstimator::Oracle(model, 1);
  eas::EventVector events{};
  for (std::size_t i = 0; i < eas::kNumEventTypes; ++i) {
    events[i] = 100.0 + static_cast<double>(i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.EstimateDynamicEnergy(events));
  }
}
BENCHMARK(BM_EstimateDynamicEnergy);

void BM_ProfileUpdate(benchmark::State& state) {
  eas::EnergyProfile profile;
  profile.Seed(40.0);
  for (auto _ : state) {
    profile.AddPeriod(5.0, 100);
    benchmark::DoNotOptimize(profile.power());
  }
}
BENCHMARK(BM_ProfileUpdate);

void BM_Calibration(benchmark::State& state) {
  const eas::EnergyModel model = eas::EnergyModel::Default();
  for (auto _ : state) {
    benchmark::DoNotOptimize(eas::Calibrator::CalibrateDefault(model, 1));
  }
}
BENCHMARK(BM_Calibration)->Unit(benchmark::kMillisecond);

// The arguments are a task-tick's six normals and a calibration workload's
// 12,000.
void BM_NextGaussians(benchmark::State& state) {
  eas::Rng rng(static_cast<std::uint64_t>(state.range(0)));
  std::vector<double> normals(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    rng.NextGaussians(normals);
    benchmark::DoNotOptimize(normals.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NextGaussians)->Arg(6)->Arg(12'000);

// One executed task-tick of bzip2, a paper-mixed program whose phases draw
// rate noise, duration jitter and I/O sleeps.
void BM_TaskExecuteTick(benchmark::State& state) {
  const eas::ProgramLibrary library(eas::EnergyModel::Default());
  eas::Task task(1, &library.bzip2(), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(task.ExecuteTick(1.0));
    benchmark::DoNotOptimize(task.TakePendingSleep());
  }
}
BENCHMARK(BM_TaskExecuteTick);

eas::MachineConfig BenchConfig(bool energy_aware) {
  eas::MachineConfig config;
  config.topology = eas::CpuTopology::PaperXSeries445(false);
  config.cooling = eas::CoolingProfile::PaperXSeries445();
  config.explicit_max_power_physical = 60.0;
  config.estimator_weights = eas::EnergyModel::Default().weights();
  config.sched = energy_aware ? eas::EnergySchedConfig::EnergyAware()
                              : eas::EnergySchedConfig::Baseline();
  return config;
}

void BM_MachineTickBaseline(benchmark::State& state) {
  eas::Machine machine(BenchConfig(false));
  const eas::ProgramLibrary library(eas::EnergyModel::Default());
  for (int i = 0; i < 18; ++i) {
    machine.state().Spawn(*eas::MixedWorkload(library, 3)[static_cast<std::size_t>(i)]);
  }
  for (auto _ : state) {
    machine.engine().Tick(machine.state());
  }
}
BENCHMARK(BM_MachineTickBaseline);

void BM_MachineTickEnergyAware(benchmark::State& state) {
  eas::Machine machine(BenchConfig(true));
  const eas::ProgramLibrary library(eas::EnergyModel::Default());
  for (int i = 0; i < 18; ++i) {
    machine.state().Spawn(*eas::MixedWorkload(library, 3)[static_cast<std::size_t>(i)]);
  }
  for (auto _ : state) {
    machine.engine().Tick(machine.state());
  }
}
BENCHMARK(BM_MachineTickEnergyAware);

// Runs against the machine's state, the env the engine balances over. The
// state reuses group aggregates for a whole tick, so each pass first drops
// them: the row measures a cold pass, the one the engine runs once per tick.
void BM_EnergyBalancerPass(benchmark::State& state) {
  eas::Machine machine(BenchConfig(true));
  eas::SimulationState& env = machine.state();
  const eas::ProgramLibrary library(eas::EnergyModel::Default());
  for (const eas::Program* p : eas::MixedWorkload(library, 3)) {
    env.Spawn(*p);
  }
  machine.Run(2'000);  // settle
  eas::EnergyLoadBalancer balancer(eas::EnergyLoadBalancer::Options{});
  int cpu = 0;
  for (auto _ : state) {
    env.aggregate_cache().BeginPass();
    benchmark::DoNotOptimize(balancer.Balance(cpu, env));
    cpu = (cpu + 1) % 8;
  }
}
BENCHMARK(BM_EnergyBalancerPass);

void BM_InitialPlacement(benchmark::State& state) {
  eas::Machine machine(BenchConfig(true));
  eas::SimulationState& env = machine.state();
  const eas::ProgramLibrary library(eas::EnergyModel::Default());
  for (const eas::Program* p : eas::MixedWorkload(library, 3)) {
    env.Spawn(*p);
  }
  machine.Run(500);
  eas::InitialPlacement placement;
  eas::Program program("probe", 4242, {eas::Phase{}}, 0);
  eas::Task task(9999, &program, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(placement.Place(task, env, env.binary_registry()));
  }
}
BENCHMARK(BM_InitialPlacement);

}  // namespace
