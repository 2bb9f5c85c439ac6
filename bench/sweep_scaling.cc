// Sweep-scaling microbenchmark: wall time of an experiment sweep through the
// ExperimentRunner at 1 thread vs all hardware threads, plus the per-tick
// engine rate. Seeds the perf trajectory: run it per change and compare the
// BENCH_sweep_scaling.json it writes.
//
//   $ bench_sweep_scaling [--runs=12] [--duration=40000] [--threads=0]
//                         [--out=BENCH_sweep_scaling.json]
//
// --threads pins the multi-thread leg (0 = all hardware threads); the JSON
// records it plus the build type so tools/bench_compare.py can refuse to
// diff runs measured under different configurations. The bench fails if
// the aggregate work differs across thread counts.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_report.h"
#include "src/api/run_request.h"
#include "src/base/flags.h"

namespace {

std::vector<eas::ExperimentSpec> MakeSweep(int runs, eas::Tick duration) {
  // The sweep described as a request (the same one `eastool --request`
  // would run), then tightened for benching: exact tick count and oracle
  // estimator weights, so the timing measures the engine, not calibration.
  eas::RunRequest request;
  request.name = "sweep";
  request.workload = "mixed:2";
  request.max_power = 60.0;
  request.runs = static_cast<std::uint64_t>(runs);
  auto resolved = eas::ResolveRunRequest(request);
  if (!resolved.ok()) {
    std::fprintf(stderr, "resolve: %s\n", resolved.error().Render().c_str());
    std::exit(1);
  }
  std::vector<eas::ExperimentSpec> specs = std::move(resolved->specs);
  for (eas::ExperimentSpec& spec : specs) {
    spec.options.duration_ticks = duration;
    spec.config.estimator_weights = eas::EnergyModel::Default().weights();
  }
  return specs;
}

double TimeSweep(const std::vector<eas::ExperimentSpec>& specs, std::size_t threads,
                 double* work_done) {
  const eas::ExperimentRunner runner(threads);
  const auto start = std::chrono::steady_clock::now();
  const std::vector<eas::RunResult> results = runner.RunAll(specs);
  const double elapsed = eas::bench::SecondsSince(start);
  *work_done = 0.0;
  for (const eas::RunResult& result : results) {
    *work_done += result.work_done_ticks;
  }
  return elapsed;
}

}  // namespace

int main(int argc, char** argv) {
  const eas::FlagParser flags(argc, argv);
  const std::vector<std::string> unknown =
      flags.UnknownFlags({"runs", "duration", "threads", "out"});
  if (!unknown.empty()) {
    std::fprintf(stderr, "unknown flag --%s (known: --runs --duration --threads --out)\n",
                 unknown.front().c_str());
    return 1;
  }
  const int runs = std::max(1, static_cast<int>(flags.GetInt("runs", 12)));
  const eas::Tick duration = std::max<eas::Tick>(1, flags.GetInt("duration", 40'000));
  const std::size_t requested =
      static_cast<std::size_t>(std::max(0LL, flags.GetInt("threads", 0)));
  const std::string out = flags.GetString("out", "BENCH_sweep_scaling.json");

  const std::vector<eas::ExperimentSpec> specs = MakeSweep(runs, duration);
  const std::size_t hardware =
      requested > 0 ? requested : eas::ExperimentRunner().num_threads();

  std::printf("== sweep scaling: %d runs x %lld ticks ==\n\n", runs,
              static_cast<long long>(duration));

  double work_single = 0.0;
  const double single = TimeSweep(specs, 1, &work_single);
  std::printf("  1 thread : %7.2f s  (%.0f work ticks)\n", single, work_single);

  double work_multi = 0.0;
  const double multi = TimeSweep(specs, hardware, &work_multi);
  std::printf("  %zu threads: %7.2f s  (%.0f work ticks)\n", hardware, multi, work_multi);

  const double speedup = multi > 0.0 ? single / multi : 0.0;
  const double ticks_per_second =
      single > 0.0 ? static_cast<double>(runs) * static_cast<double>(duration) / single : 0.0;
  std::printf("  speedup  : %6.2fx\n", speedup);
  std::printf("  1-thread engine rate: %.0f machine-ticks/s\n", ticks_per_second);

  eas::bench::BenchReport report("sweep_scaling");
  report.Config("runs", runs);
  report.Config("duration_ticks", duration);
  report.Config("threads", hardware);
  report.Config("build_type", eas::bench::BuildType());
  report.Noisy("sweep", "single_thread_ticks_per_second", ticks_per_second, "ticks/s");
  report.Invariant("sweep", "deterministic_across_threads", work_single == work_multi);
  return report.Write(out);
}
