// Tick hot-path benchmark: engine ticks/sec as the task population grows,
// plus the quiescent-span skip-ahead rate on a sparse workload.
//
// The event-driven engine (heap wake queue, arrival queue, cached balance
// aggregates, active-mask sampling) must hold its tick rate roughly constant
// as tasks accumulate; the scan-based loop it replaced degrades linearly in
// the number of tasks ever spawned. This bench drives both over the same
// sleeper-heavy workload (interactive daemons that spend most ticks blocked,
// the worst case for the wake scan) at 100 / 1k / 10k tasks, then measures
// skip-ahead vs naive ticking on a cron-style mostly-idle workload where
// the machine is quiescent ~99% of ticks. It prints the ticks/sec table
// plus the speedups and writes the gated rows to BENCH_tick_hot_path.json.
//
//   $ bench_tick_hot_path [--ticks=2000] [--out=BENCH_tick_hot_path.json]
//
// The scan reference (src/sim/scan_reference.h) reproduces the
// pre-event-queue engine tick exactly (same phase components, wakeups via a
// task-table scan), so the bench also cross-checks that both loops finish in
// bit-identical states; the sparse row cross-checks that skip-ahead and the
// naive tick loop do too (the engine's bit-identity contract).
//
// The document records the run configuration (ticks, threads, build type),
// so tools/bench_compare.py refuses to diff runs measured under different
// conditions.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_report.h"
#include "src/api/run_request.h"
#include "src/base/flags.h"
#include "src/counters/energy_model.h"
#include "src/sim/scan_reference.h"
#include "src/sim/simulation_engine.h"
#include "src/workloads/programs.h"

namespace {

using eas::Tick;
using eas::bench::SecondsSince;

eas::MachineConfig BenchConfig() {
  // The bench machine as a request (paper topology, 60 W cap, seed 7), then
  // oracle estimator weights so the timing measures the engine, not
  // calibration.
  auto resolved = eas::ResolveRunRequest(*eas::ParseRunRequest("max-power = 60; seed = 7"));
  if (!resolved.ok()) {
    std::fprintf(stderr, "resolve: %s\n", resolved.error().Render().c_str());
    std::exit(1);
  }
  eas::MachineConfig config = resolved->specs.front().config;
  config.estimator_weights = eas::EnergyModel::Default().weights();
  return config;
}

// Mostly-sleeping daemons plus a small always-running floor: the population
// a consolidation host carries, and the worst case for a per-task wake scan.
void SpawnSleeperHeavy(eas::SimulationState& state, const eas::ProgramLibrary& library,
                       int tasks) {
  for (int i = 0; i < tasks; ++i) {
    switch (i % 8) {
      case 0:
        state.Spawn(library.memrw(), 0);
        break;
      case 1:
      case 2:
      case 3:
        state.Spawn(library.bash(), 0);
        break;
      default:
        state.Spawn(library.sshd(), 0);
        break;
    }
  }
}

// Cron-style program for the sparse row: ~12-tick bursts separated by ~6000
// ticks of sleep, so a handful of tasks leaves the machine quiescent (no
// task runnable anywhere) on ~99% of ticks - the regime skip-ahead turns
// into closed-form spans.
eas::Program MakeCronProgram(const eas::EnergyModel& model) {
  eas::EventRates signature{};
  signature.fill(1.0);
  eas::Phase burst;
  burst.rates = model.RatesForTargetPower(signature, 35.0);
  burst.mean_duration = 12;
  burst.duration_jitter = 0.1;
  burst.mean_sleep_after = 6'000;
  burst.rate_noise = 0.02;
  return eas::Program("cron", 0xc407, {burst}, /*total_work_ticks=*/0);
}

struct Measurement {
  std::string name;
  double engine_ticks_per_second = 0.0;  // the optimized path (always gated)
  double reference_ticks_per_second = 0.0;
  double speedup = 0.0;
  bool identical = false;
};

Measurement MeasurePopulation(const eas::ProgramLibrary& library, int tasks, Tick ticks) {
  const eas::MachineConfig config = BenchConfig();

  eas::SimulationState engine_state(config);
  eas::SimulationEngine engine(config.sched);
  SpawnSleeperHeavy(engine_state, library, tasks);
  const auto engine_start = std::chrono::steady_clock::now();
  for (Tick t = 0; t < ticks; ++t) {
    engine.Tick(engine_state);
  }
  const double engine_seconds = SecondsSince(engine_start);

  eas::SimulationState scan_state(config);
  eas::ScanReferenceStepper scan(config.sched);
  SpawnSleeperHeavy(scan_state, library, tasks);
  const auto scan_start = std::chrono::steady_clock::now();
  for (Tick t = 0; t < ticks; ++t) {
    scan.Step(scan_state);
  }
  const double scan_seconds = SecondsSince(scan_start);

  Measurement m;
  m.name = "tasks_" + std::to_string(tasks);
  m.engine_ticks_per_second =
      engine_seconds > 0.0 ? static_cast<double>(ticks) / engine_seconds : 0.0;
  m.reference_ticks_per_second =
      scan_seconds > 0.0 ? static_cast<double>(ticks) / scan_seconds : 0.0;
  m.speedup = engine_seconds > 0.0 ? scan_seconds / engine_seconds : 0.0;
  m.identical = engine_state.TotalWorkDone() == scan_state.TotalWorkDone() &&
                engine_state.TotalTaskEnergy() == scan_state.TotalTaskEnergy() &&
                engine_state.migration_count() == scan_state.migration_count();
  return m;
}

// End states must match bitwise between the skip-ahead and naive runs: the
// scheduler-visible aggregates plus the analog state skip-ahead integrates
// in closed form (package temperature and true power, and every CPU's
// thermal-power average).
bool BitIdentical(eas::SimulationState& a, eas::SimulationState& b) {
  if (a.TotalWorkDone() != b.TotalWorkDone() || a.TotalTaskEnergy() != b.TotalTaskEnergy() ||
      a.migration_count() != b.migration_count() || a.now() != b.now()) {
    return false;
  }
  for (std::size_t phys = 0; phys < a.num_physical(); ++phys) {
    if (a.Temperature(phys) != b.Temperature(phys) || a.TruePower(phys) != b.TruePower(phys)) {
      return false;
    }
  }
  for (std::size_t cpu = 0; cpu < a.num_cpus(); ++cpu) {
    if (a.ThermalPower(static_cast<int>(cpu)) != b.ThermalPower(static_cast<int>(cpu))) {
      return false;
    }
  }
  return true;
}

Measurement MeasureSparse(const eas::EnergyModel& model, Tick ticks) {
  const eas::Program cron = MakeCronProgram(model);
  constexpr int kTasks = 4;

  eas::MachineConfig skip_config = BenchConfig();
  skip_config.skip_ahead = true;
  eas::SimulationState skip_state(skip_config);
  eas::SimulationEngine skip_engine(skip_config.sched);
  for (int i = 0; i < kTasks; ++i) {
    skip_state.Spawn(cron, 0);
  }
  const auto skip_start = std::chrono::steady_clock::now();
  skip_engine.Advance(skip_state, ticks);
  const double skip_seconds = SecondsSince(skip_start);

  eas::MachineConfig naive_config = BenchConfig();
  naive_config.skip_ahead = false;
  eas::SimulationState naive_state(naive_config);
  eas::SimulationEngine naive_engine(naive_config.sched);
  for (int i = 0; i < kTasks; ++i) {
    naive_state.Spawn(cron, 0);
  }
  const auto naive_start = std::chrono::steady_clock::now();
  naive_engine.Advance(naive_state, ticks);
  const double naive_seconds = SecondsSince(naive_start);

  Measurement m;
  m.name = "sparse_idle";
  m.engine_ticks_per_second =
      skip_seconds > 0.0 ? static_cast<double>(ticks) / skip_seconds : 0.0;
  m.reference_ticks_per_second =
      naive_seconds > 0.0 ? static_cast<double>(ticks) / naive_seconds : 0.0;
  m.speedup = skip_seconds > 0.0 ? naive_seconds / skip_seconds : 0.0;
  m.identical = BitIdentical(skip_state, naive_state);
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const eas::FlagParser flags(argc, argv);
  const std::vector<std::string> unknown = flags.UnknownFlags({"ticks", "out"});
  if (!unknown.empty()) {
    std::fprintf(stderr, "unknown flag --%s (known: --ticks --out)\n", unknown.front().c_str());
    return 1;
  }
  const Tick ticks = std::max<Tick>(1, flags.GetInt("ticks", 2'000));
  const std::string out = flags.GetString("out", "BENCH_tick_hot_path.json");

  const eas::EnergyModel model = eas::EnergyModel::Default();
  const eas::ProgramLibrary library(model);
  constexpr int kPopulations[] = {100, 1'000, 10'000};
  // The sparse row advances far more simulated time per wall second (that is
  // the point), so it runs a proportionally longer span for stable timing.
  const Tick sparse_ticks = ticks * 50;

  std::printf("== tick hot path: %lld ticks per population ==\n\n",
              static_cast<long long>(ticks));
  std::printf("  %-12s  %14s  %14s  %8s  %s\n", "row", "engine tick/s", "reference",
              "speedup", "identical");

  std::vector<Measurement> rows;
  for (int tasks : kPopulations) {
    rows.push_back(MeasurePopulation(library, tasks, ticks));
  }
  rows.push_back(MeasureSparse(model, sparse_ticks));

  eas::bench::BenchReport report("tick_hot_path");
  report.Config("ticks", ticks);
  report.Config("sparse_ticks", sparse_ticks);
  report.Config("threads", 1);
  report.Config("build_type", eas::bench::BuildType());
  for (const Measurement& m : rows) {
    std::printf("  %-12s  %14.0f  %14.0f  %7.2fx  %s\n", m.name.c_str(),
                m.engine_ticks_per_second, m.reference_ticks_per_second, m.speedup,
                m.identical ? "yes" : "NO");
    report.Noisy(m.name, "engine_ticks_per_second", m.engine_ticks_per_second, "ticks/s");
    report.Invariant(m.name, "identical", m.identical);
  }
  return report.Write(out);
}
