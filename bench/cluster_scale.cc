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
// at any --ticks) and a row reports its median wall-clock sweep, so one
// descheduled sweep moves no reading. With per-domain aggregate rollups one
// pass costs O(fanout x depth), so the per-pass cost must stay near-constant
// as the machine grows 8x. The balance_scaling row decides that on a count
// the host cannot perturb: one more sweep at each size runs through a
// BalanceEnv that counts the per-CPU queries a pass makes (runqueue,
// RunqueuePower, ThermalPower, MaxPower, CpuOnline). A pass that scans
// every CPU adds at least the CPU count per pass, so `sublinear` holds only
// if the queries per pass grow by less than half the CPUs added (448 for
// 128 -> 1024), and the bench fails if they do not.
//
//   $ bench_cluster_scale [--ticks=2000] [--intra=4] [--out=BENCH_cluster_scale.json]

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_report.h"
#include "src/api/run_request.h"
#include "src/base/flags.h"
#include "src/core/policy_registry.h"
#include "src/counters/energy_model.h"
#include "src/sched/balance_env.h"
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
  double passes_per_second = 0.0;  // median sweep, wall clock
  double queries_per_pass = 0.0;   // per-CPU queries of the counted sweep
};

// The machine state as a BalanceEnv that counts every per-CPU query a
// balance pass makes. Everything else forwards, the metrics version too, so
// the aggregate cache keeps its once-per-tick rebuild.
class CountingEnv : public eas::BalanceEnv {
 public:
  explicit CountingEnv(eas::SimulationState& state) : state_(state) {}

  long long queries() const { return queries_; }

  std::uint64_t metrics_version() const override { return state_.metrics_version(); }
  const eas::CpuTopology& topology() const override { return state_.topology(); }
  const eas::DomainHierarchy& domains() const override { return state_.domains(); }
  eas::Runqueue& runqueue(int cpu) override {
    ++queries_;
    return state_.runqueue(cpu);
  }
  const eas::Runqueue& runqueue(int cpu) const override {
    ++queries_;
    return std::as_const(state_).runqueue(cpu);
  }
  double RunqueuePower(int cpu) const override {
    ++queries_;
    return state_.RunqueuePower(cpu);
  }
  double ThermalPower(int cpu) const override {
    ++queries_;
    return state_.ThermalPower(cpu);
  }
  double MaxPower(int cpu) const override {
    ++queries_;
    return state_.MaxPower(cpu);
  }
  bool CpuOnline(int cpu) const override {
    ++queries_;
    return state_.CpuOnline(cpu);
  }
  bool MigrateTask(eas::Task* task, int from, int to) override {
    return state_.MigrateTask(task, from, to);
  }
  std::int64_t migration_count() const override { return state_.migration_count(); }

 private:
  eas::SimulationState& state_;
  mutable long long queries_ = 0;
};

// Full balance sweeps over a settled machine, advancing the tick between
// sweeps so every sweep recomputes the per-domain aggregates instead of
// replaying the version-keyed cache. The rate is the median timed sweep's;
// one last sweep, untimed, counts the queries.
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
  std::vector<double> seconds;
  for (int sweep = 0; sweep < sweeps; ++sweep) {
    const auto start = std::chrono::steady_clock::now();
    for (int cpu = 0; cpu < logical; ++cpu) {
      policy->Balance(cpu, state);
    }
    seconds.push_back(SecondsSince(start));
    state.AdvanceTick();
  }
  row.passes = static_cast<long long>(sweeps) * logical;
  const auto median = seconds.begin() + seconds.size() / 2;
  std::nth_element(seconds.begin(), median, seconds.end());
  row.passes_per_second = *median > 0.0 ? logical / *median : 0.0;

  CountingEnv counting(state);
  for (int cpu = 0; cpu < logical; ++cpu) {
    policy->Balance(cpu, counting);
  }
  row.queries_per_pass = static_cast<double>(counting.queries()) / logical;
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

  // A flat per-CPU scan in each pass adds at least one query per CPU
  // added; the cached hierarchy adds a few per level whose fanout grew.
  // Sublinear means the queries per pass grow by less than half the CPUs
  // added.
  const double added_cpus =
      static_cast<double>(balance_large.cpus) - static_cast<double>(balance_small.cpus);
  const double added_queries = balance_large.queries_per_pass - balance_small.queries_per_pass;
  const bool sublinear = added_queries < added_cpus / 2.0;

  std::printf("  %-12s  %6s  %6s  %14s  %8s  %s\n", "row", "intra", "cpus", "ticks/s",
              "speedup", "identical");
  const PoolRow* pool_rows[] = {&pool_serial, &pool_on};
  for (const PoolRow* row : pool_rows) {
    std::printf("  %-12s  %6zu  %6zu  %14.1f  %7.2fx  %s\n", row->name.c_str(),
                row->intra_threads, row->cpus, row->ticks_per_second,
                row->speedup_vs_pool_serial, row->identical ? "yes" : "NO");
  }
  std::printf("\n  %-12s  %6s  %10s  %16s  %14s\n", "row", "cpus", "passes", "passes/s",
              "queries/pass");
  const BalanceRow* balance_rows[] = {&balance_small, &balance_large};
  for (const BalanceRow* row : balance_rows) {
    std::printf("  %-12s  %6zu  %10lld  %16.0f  %14.2f\n", row->name.c_str(), row->cpus,
                row->passes, row->passes_per_second, row->queries_per_pass);
  }
  std::printf("\n  balance queries per pass %+.2f for %+.0f CPUs (limit %+.0f) -> %s\n",
              added_queries, added_cpus, added_cpus / 2.0,
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
