// Cluster-scale benchmark: the package-parallel tick pipeline and the
// hierarchical balance pass at 1k CPUs.
//
// A 1024-logical machine (five-level topology 2:4:16:4:2 - 512 physical
// packages) carries a sleeper-heavy consolidation population, and the bench
// times two variants of the same run:
//
//   pool_serial  intra_run_threads = 1: the package phases on the calling
//                thread.
//   pool_on      intra_run_threads = N (--intra, default 4): the package
//                phases fanned over the worker pool.
//
// pool_serial and pool_on must finish in bit-identical states (the
// pipeline's worker-count-independence contract); the bench exits non-zero
// if they diverge. The pool_on speedup over pool_serial is hardware-
// dependent - a single-core container shows ~1x by construction - so the
// regression gate (tools/bench_compare.py) compares each row's ticks/s
// against the committed baseline measured on the same class of machine
// rather than asserting an absolute multiplier here.
//
// The balance rows probe the hierarchical balancer directly: a full
// policy->Balance() sweep over every CPU at 128 and at 1024 CPUs, cache
// invalidated between sweeps. Each sweep is timed on its own (at least 15
// at any --ticks), on the wall clock and on the thread's CPU clock, and a
// row reports its median wall-clock sweep, so one descheduled sweep moves no
// reading. With per-domain aggregate rollups one pass costs O(fanout x
// depth), so the per-pass cost must stay near-constant as the machine grows
// 8x; the balance_scaling row asserts the ratio of the two medians stays
// sublinear (< 4x for 8x the CPUs), and the bench fails if it does not.
// That verdict reads the thread-CPU medians: a loaded host that preempts a
// sweep stretches its wall time, not the CPU time the sweep used.
//
//   $ bench_cluster_scale [--ticks=2000] [--intra=4] [--out=BENCH_cluster_scale.json]

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_report.h"
#include "src/api/run_request.h"
#include "src/base/flags.h"
#include "src/core/policy_registry.h"
#include "src/counters/energy_model.h"
#include "src/sim/simulation_engine.h"
#include "src/workloads/programs.h"

namespace {

using eas::Tick;
using eas::bench::SecondsSince;

// 2 racks x 4 boards x 16 nodes x 4 packages x SMT-2 = 512 physical, 1024
// logical - the ISSUE's 1k-CPU point. The balance probe's small machine is
// the same shape shrunk to 64 physical / 128 logical so only the width
// changes, not the tree depth.
constexpr const char kClusterTopology[] = "2:4:16:4:2";
constexpr const char kSmallTopology[] = "2:2:4:4:2";

eas::MachineConfig BenchConfig(const char* topology, std::size_t intra_threads) {
  auto resolved = eas::ResolveRunRequest(*eas::ParseRunRequest(
      std::string("topology = ") + topology + "; max-power = 60; seed = 7"));
  if (!resolved.ok()) {
    std::fprintf(stderr, "resolve: %s\n", resolved.error().Render().c_str());
    std::exit(1);
  }
  eas::MachineConfig config = resolved->specs.front().config;
  config.estimator_weights = eas::EnergyModel::Default().weights();
  config.intra_run_threads = intra_threads;
  return config;
}

// The consolidation-host population, ~2 tasks per logical CPU: a memrw batch
// floor that keeps every package busy plus mostly-sleeping daemons, all at
// nice 0. Placement spreads them across the machine.
void SpawnClusterPopulation(eas::SimulationState& state, const eas::ProgramLibrary& library) {
  const int tasks = static_cast<int>(state.num_cpus()) * 2;
  for (int i = 0; i < tasks; ++i) {
    switch (i % 8) {
      case 0:
        state.Spawn(library.memrw());
        break;
      case 1:
      case 2:
      case 3:
        state.Spawn(library.bash());
        break;
      default:
        state.Spawn(library.sshd());
        break;
    }
  }
}

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
  return true;
}

struct PoolRow {
  std::string name;
  std::size_t intra_threads = 0;
  std::size_t cpus = 0;
  double ticks_per_second = 0.0;
  double speedup_vs_pool_serial = 0.0;
  bool identical = false;
  std::unique_ptr<eas::SimulationState> state;  // kept for the cross-checks
};

PoolRow MeasurePool(const std::string& name, const eas::ProgramLibrary& library,
                    std::size_t intra_threads, Tick ticks) {
  const eas::MachineConfig config = BenchConfig(kClusterTopology, intra_threads);
  PoolRow row;
  row.name = name;
  row.intra_threads = intra_threads;
  row.cpus = config.topology.num_logical();
  row.state = std::make_unique<eas::SimulationState>(config);
  eas::SimulationEngine engine(config.sched);
  SpawnClusterPopulation(*row.state, library);
  const auto start = std::chrono::steady_clock::now();
  for (Tick t = 0; t < ticks; ++t) {
    engine.Tick(*row.state);
  }
  const double seconds = SecondsSince(start);
  row.ticks_per_second = seconds > 0.0 ? static_cast<double>(ticks) / seconds : 0.0;
  return row;
}

struct BalanceRow {
  std::string name;
  std::size_t cpus = 0;
  long long passes = 0;
  double passes_per_second = 0.0;      // median sweep, wall clock
  double cpu_passes_per_second = 0.0;  // median sweep, thread CPU clock
};

// CPU time the calling thread has used, in seconds.
double ThreadCpuSeconds() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + static_cast<double>(now.tv_nsec) * 1e-9;
}

// Passes per second of the median sweep of `sweep_seconds` (reordered).
double MedianRate(std::vector<double>& sweep_seconds, int passes_per_sweep) {
  const auto median = sweep_seconds.begin() + sweep_seconds.size() / 2;
  std::nth_element(sweep_seconds.begin(), median, sweep_seconds.end());
  return *median > 0.0 ? passes_per_sweep / *median : 0.0;
}

// Full balance sweeps over a settled machine, advancing the tick between
// sweeps so every sweep recomputes the per-domain aggregates instead of
// replaying the version-keyed cache. Both rates are the median sweep's.
BalanceRow MeasureBalance(const char* topology, const eas::ProgramLibrary& library,
                          int sweeps, Tick warmup_ticks) {
  const eas::MachineConfig config = BenchConfig(topology, 0);
  BalanceRow row;
  row.cpus = config.topology.num_logical();
  row.name = "balance_" + std::to_string(row.cpus);

  eas::SimulationState state(config);
  eas::SimulationEngine engine(config.sched);
  SpawnClusterPopulation(state, library);
  for (Tick t = 0; t < warmup_ticks; ++t) {
    engine.Tick(state);
  }

  auto policy =
      eas::BalancePolicyRegistry::Global().CreateOrThrow(config.sched.balancer_name, config.sched);
  const int logical = static_cast<int>(config.topology.num_logical());
  std::vector<double> wall_seconds;
  std::vector<double> cpu_seconds;
  for (int sweep = 0; sweep < sweeps; ++sweep) {
    const double cpu_start = ThreadCpuSeconds();
    const auto start = std::chrono::steady_clock::now();
    for (int cpu = 0; cpu < logical; ++cpu) {
      policy->Balance(cpu, state);
    }
    wall_seconds.push_back(SecondsSince(start));
    cpu_seconds.push_back(ThreadCpuSeconds() - cpu_start);
    state.AdvanceTick();
  }
  row.passes = static_cast<long long>(sweeps) * logical;
  row.passes_per_second = MedianRate(wall_seconds, logical);
  row.cpu_passes_per_second = MedianRate(cpu_seconds, logical);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const eas::FlagParser flags(argc, argv);
  const std::vector<std::string> unknown = flags.UnknownFlags({"ticks", "intra", "out"});
  if (!unknown.empty()) {
    std::fprintf(stderr, "unknown flag --%s (known: --ticks --intra --out)\n",
                 unknown.front().c_str());
    return 1;
  }
  const Tick ticks = std::max<Tick>(1, flags.GetInt("ticks", 2'000));
  const std::size_t intra = static_cast<std::size_t>(std::max<long long>(2, flags.GetInt("intra", 4)));
  const std::string out = flags.GetString("out", "BENCH_cluster_scale.json");

  const eas::EnergyModel model = eas::EnergyModel::Default();
  const eas::ProgramLibrary library(model);

  std::printf("== cluster scale: %lld ticks at 1024 logical CPUs ==\n\n",
              static_cast<long long>(ticks));

  PoolRow pool_serial = MeasurePool("pool_serial", library, 1, ticks);
  PoolRow pool_on = MeasurePool("pool_on", library, intra, ticks);

  // The contract: every worker count produces the same bits.
  pool_serial.identical = BitIdentical(*pool_serial.state, *pool_on.state);
  pool_on.identical = pool_serial.identical;
  pool_serial.speedup_vs_pool_serial = 1.0;
  pool_on.speedup_vs_pool_serial =
      pool_on.ticks_per_second > 0.0 && pool_serial.ticks_per_second > 0.0
          ? pool_on.ticks_per_second / pool_serial.ticks_per_second
          : 0.0;

  // Balance sweeps sized off --ticks, but never fewer than 15, so even the
  // smoke run's medians stand on enough sweeps; identical sweep counts at
  // both sizes keep the comparison clean.
  const int sweeps = static_cast<int>(std::max<Tick>(15, ticks / 128));
  const Tick warmup = std::min<Tick>(32, ticks);
  BalanceRow balance_small = MeasureBalance(kSmallTopology, library, sweeps, warmup);
  BalanceRow balance_large = MeasureBalance(kClusterTopology, library, sweeps, warmup);

  const double cpu_ratio =
      static_cast<double>(balance_large.cpus) / static_cast<double>(balance_small.cpus);
  // Per-pass cost ratio of the median sweeps: small passes/s over large
  // passes/s. 1.0 = constant per-pass cost; cpu_ratio = per-pass cost
  // growing linearly with machine size (a flat O(cpus) scan). Sublinear
  // means staying well under cpu_ratio, judged on thread CPU time.
  const auto cost_ratio = [](double small_rate, double large_rate) {
    return large_rate > 0.0 ? small_rate / large_rate : 0.0;
  };
  const double per_pass_cost_ratio =
      cost_ratio(balance_small.passes_per_second, balance_large.passes_per_second);
  const double cpu_per_pass_cost_ratio =
      cost_ratio(balance_small.cpu_passes_per_second, balance_large.cpu_passes_per_second);
  const bool sublinear =
      cpu_per_pass_cost_ratio > 0.0 && cpu_per_pass_cost_ratio < cpu_ratio / 2.0;

  std::printf("  %-12s  %6s  %6s  %14s  %8s  %s\n", "row", "intra", "cpus", "ticks/s",
              "speedup", "identical");
  const PoolRow* pool_rows[] = {&pool_serial, &pool_on};
  for (const PoolRow* row : pool_rows) {
    std::printf("  %-12s  %6zu  %6zu  %14.1f  %7.2fx  %s\n", row->name.c_str(),
                row->intra_threads, row->cpus, row->ticks_per_second,
                row->speedup_vs_pool_serial, row->identical ? "yes" : "NO");
  }
  std::printf("\n  %-12s  %6s  %10s  %16s  %16s\n", "row", "cpus", "passes", "passes/s",
              "cpu passes/s");
  const BalanceRow* balance_rows[] = {&balance_small, &balance_large};
  for (const BalanceRow* row : balance_rows) {
    std::printf("  %-12s  %6zu  %10lld  %16.0f  %16.0f\n", row->name.c_str(), row->cpus,
                row->passes, row->passes_per_second, row->cpu_passes_per_second);
  }
  std::printf("\n  balance per-pass cost x%.2f in thread CPU time (x%.2f wall) for x%.0f CPUs "
              "-> %s\n",
              cpu_per_pass_cost_ratio, per_pass_cost_ratio, cpu_ratio,
              sublinear ? "sublinear" : "NOT SUBLINEAR");

  eas::bench::BenchReport report("cluster_scale");
  report.Config("ticks", ticks);
  report.Config("intra_threads", intra);
  report.Config("balance_sweeps", sweeps);
  report.Config("threads", 1);
  report.Config("build_type", eas::bench::BuildType());
  for (const PoolRow* row : pool_rows) {
    report.Noisy(row->name, "ticks_per_second", row->ticks_per_second, "ticks/s");
    report.Invariant(row->name, "identical", row->identical);
  }
  for (const BalanceRow* row : balance_rows) {
    report.Noisy(row->name, "passes_per_second", row->passes_per_second, "passes/s");
  }
  report.Invariant("balance_scaling", "sublinear", sublinear);
  return report.Write(out);
}
