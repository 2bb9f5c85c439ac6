// Governor x policy sweep: every registered frequency governor under every
// registered balancing policy, over the governor-comparison scenario (40 W
// cap, hlt backstop armed), described as RunRequests and fanned through one
// RunSession. This is the one-command energy-balancing-under-DVFS vs
// hlt-throttling experiment: the "none" rows are the paper's pure-hlt
// baseline, the governed rows show how much halting each governor trades
// for lower frequency.
//
// Writes BENCH_governors.json with each row's simulated throughput and its
// DVFS-column verdict: governed rows carry the avg_frequency_cpu* columns,
// the pure-hlt "none" rows must not. CI gates it against bench/baselines/
// with tools/bench_compare.py - the simulation is deterministic, so the
// per-row throughput values are comparable across machines.
//
//   $ bench_governor_sweep [--duration=40000] [--threads=0] [--out=BENCH_governors.json]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_report.h"
#include "src/api/run_session.h"
#include "src/base/flags.h"
#include "src/core/policy_registry.h"
#include "src/freq/governor_registry.h"
#include "src/sim/metrics.h"

int main(int argc, char** argv) {
  const eas::FlagParser flags(argc, argv);
  const std::vector<std::string> unknown = flags.UnknownFlags({"duration", "threads", "out"});
  if (!unknown.empty()) {
    std::fprintf(stderr, "unknown flag --%s (known: --duration --threads --out)\n",
                 unknown.front().c_str());
    return 1;
  }
  const eas::Tick duration = flags.GetInt("duration", 40'000);
  const std::size_t threads =
      static_cast<std::size_t>(std::max(0LL, flags.GetInt("threads", 0)));
  const std::string out = flags.GetString("out", "BENCH_governors.json");

  const std::vector<std::string> governors = eas::FrequencyGovernorRegistry::Global().Names();
  const std::vector<std::string> policies = eas::BalancePolicyRegistry::Global().Names();

  // Every row is a declarative request over the governor-comparison
  // scenario. Pure-mechanism rows: hlt only on the "none" rows, the
  // governor alone otherwise - with the backstop armed the gate absorbs
  // every overshoot before a stepwise governor can react, and all rows
  // collapse onto the hlt baseline.
  std::vector<eas::ResolvedRequest> resolved;
  for (const std::string& governor : governors) {
    for (const std::string& policy : policies) {
      eas::RunRequest request = eas::RunRequestForScenario("governor-comparison");
      request.name = governor + "/" + policy;
      request.governor = governor;
      request.policy = policy;
      request.throttle = governor == "none";
      if (duration > 0) {
        request.duration_s = static_cast<double>(duration) / 1000.0;
      }
      auto r = eas::ResolveRunRequest(request);
      if (!r.ok()) {
        std::fprintf(stderr, "resolve %s: %s\n", request.name.c_str(),
                     r.error().Render().c_str());
        return 1;
      }
      resolved.push_back(std::move(*r));
    }
  }

  std::printf("== governor sweep: %zu governors x %zu policies ==\n\n", governors.size(),
              policies.size());

  const eas::RunSession session(threads);
  const auto start = std::chrono::steady_clock::now();
  const std::vector<eas::RunRecord> records = session.Run(resolved);
  const double elapsed = eas::bench::SecondsSince(start);

  eas::bench::BenchReport report("governor_sweep");
  report.Config("scenario", "governor-comparison");
  report.Config("duration_ticks", duration);
  for (const eas::RunRecord& record : records) {
    std::printf("  %-32s %9.1f work-ticks/s  %5.2f%% throttled  %.3fx avg freq\n",
                record.spec.name.c_str(), record.result.Throughput(),
                record.result.AverageThrottledFraction() * 100,
                record.result.AverageFrequencyMultiplier());
    report.Tight(record.spec.name, "throughput", record.result.Throughput(), "work-ticks/s");
    // The DVFS presence rule, read off the metric schema every output renders.
    const std::vector<eas::MetricValue> columns = eas::MetricScalars(record.result);
    const bool dvfs_columns =
        std::any_of(columns.begin(), columns.end(),
                    [](const eas::MetricValue& m) { return m.name == "avg_frequency_cpu0"; });
    const bool governed = record.request.governor != "none";
    report.Invariant(record.spec.name, governed ? "dvfs_columns_present" : "dvfs_columns_absent",
                     dvfs_columns == governed);
  }
  std::printf("\n%.1f s wall\n", elapsed);
  return report.Write(out);
}
