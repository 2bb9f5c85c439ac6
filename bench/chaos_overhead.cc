// Fault-layer overhead: the chaos-soak scenario run three ways through one
// RunSession. "fault-free" cancels the scenario's plan (`faults = none`) so
// no fault machinery is armed at all; "armed-idle" swaps in a single clause
// that never fires inside the horizon, isolating the pure cost of carrying
// an armed FaultPhase through every tick; "chaos" is the scenario's full
// baked-in plan (hotplug churn, thermal spikes, P-state clamps).
//
// The bench asserts the fault-layer contract in-process, as invariant rows
// that fail the bench and the CI gate if they ever stop holding: an
// armed-but-idle plan leaves the simulated physics bit-identical to the
// fault-free run and fires nothing, the chaos plan fires faults, and the
// fault-free run grows no fault columns. Wall ticks/s per row is what makes
// idle overhead visible: a regression in the armed-idle rate against the
// baseline means the fault layer started costing ticks it did not before.
//
// Writes BENCH_chaos.json (simulated throughput and wall rate per row, plus
// the invariants). CI gates it against bench/baselines/ with
// tools/bench_compare.py.
//
//   $ bench_chaos_overhead [--duration=20000] [--threads=0] [--out=BENCH_chaos.json]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_report.h"
#include "src/api/run_session.h"
#include "src/base/flags.h"

namespace {
// One clause, parked far past any horizon this bench runs: the FaultPhase
// is armed (skip-ahead stays bounded, the ledger ticks) but never reacts.
constexpr const char kNeverFiring[] = "off:0@900000000";

struct Row {
  std::string name;
  const char* faults;  // nullptr = inherit the scenario's plan
};
}  // namespace

int main(int argc, char** argv) {
  const eas::FlagParser flags(argc, argv);
  const std::vector<std::string> unknown = flags.UnknownFlags({"duration", "threads", "out"});
  if (!unknown.empty()) {
    std::fprintf(stderr, "unknown flag --%s (known: --duration --threads --out)\n",
                 unknown.front().c_str());
    return 1;
  }
  const eas::Tick duration = flags.GetInt("duration", 20'000);
  const std::size_t threads =
      static_cast<std::size_t>(std::max(0LL, flags.GetInt("threads", 0)));
  const std::string out = flags.GetString("out", "BENCH_chaos.json");

  const Row rows[] = {
      {"fault-free", "none"},
      {"armed-idle", kNeverFiring},
      {"chaos", nullptr},
  };

  const eas::RunSession session(threads);

  std::printf("== chaos overhead: chaos-soak x 3 fault plans, %lld ticks ==\n\n",
              static_cast<long long>(duration));

  std::vector<eas::RunRecord> records;
  std::vector<double> wall_rates;
  const auto bench_start = std::chrono::steady_clock::now();
  for (const Row& row : rows) {
    eas::RunRequest request = eas::RunRequestForScenario("chaos-soak");
    request.name = row.name;
    if (row.faults != nullptr) {
      request.faults = row.faults;
    }
    if (duration > 0) {
      request.duration_s = static_cast<double>(duration) / 1000.0;
    }
    auto resolved = eas::ResolveRunRequest(request);
    if (!resolved.ok()) {
      std::fprintf(stderr, "resolve %s: %s\n", row.name.c_str(),
                   resolved.error().Render().c_str());
      return 1;
    }
    std::vector<eas::ResolvedRequest> batch;
    batch.push_back(std::move(*resolved));
    const auto start = std::chrono::steady_clock::now();
    std::vector<eas::RunRecord> ran = session.Run(batch);
    const double elapsed = eas::bench::SecondsSince(start);
    if (ran.size() != 1) {
      std::fprintf(stderr, "%s: expected 1 record, got %zu\n", row.name.c_str(), ran.size());
      return 1;
    }
    wall_rates.push_back(elapsed > 0 ? static_cast<double>(duration) / elapsed : 0.0);
    records.push_back(std::move(ran.front()));
  }

  eas::bench::BenchReport report("chaos_overhead");
  report.Config("scenario", "chaos-soak");
  report.Config("duration_ticks", duration);
  report.Config("threads", session.runner().num_threads());
  report.Config("build_type", eas::bench::BuildType());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const eas::RunRecord& record = records[i];
    report.Tight(record.spec.name, "throughput", record.result.Throughput(), "work-ticks/s");
    report.Noisy(record.spec.name, "wall_ticks_per_second", wall_rates[i], "ticks/s");
    std::printf("  %-12s %9.1f work-ticks/s  %10.0f wall-ticks/s  %lld faults  %lld offline "
                "cpu-ticks\n",
                record.spec.name.c_str(), record.result.Throughput(), wall_rates[i],
                static_cast<long long>(record.result.faults_fired.value_or(0)),
                static_cast<long long>(record.result.offline_cpu_ticks.value_or(0)));
  }

  // The armed-but-idle contract: a plan that never fires must leave every
  // simulated quantity bit-identical to the fault-free run - the fault
  // columns are bookkeeping, not physics.
  const eas::RunResult& clean = records[0].result;
  const eas::RunResult& idle = records[1].result;
  const eas::RunResult& chaos = records[2].result;
  report.Invariant("armed-idle", "identical_physics",
                   clean.Throughput() == idle.Throughput() &&
                       clean.AverageThrottledFraction() == idle.AverageThrottledFraction() &&
                       clean.AverageFrequencyMultiplier() == idle.AverageFrequencyMultiplier());
  report.Invariant("armed-idle", "fires_nothing", idle.faults_fired == 0);
  report.Invariant("chaos", "fires_faults", chaos.faults_fired.value_or(0) > 0);
  // Fault columns render only when a plan is armed; "none" arms nothing.
  report.Invariant("fault-free", "fault_columns_absent", !clean.faults_fired.has_value());

  std::printf("\n%.1f s wall\n", eas::bench::SecondsSince(bench_start));
  return report.Write(out);
}
