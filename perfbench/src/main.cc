// The repository benchmark's binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--scale <f>] [--self-test]
//
// Prints the run conditions and output digests, then as its last stdout line
// one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones. Exits non-zero when an output check failed or an operation
// failed that the run did not inject on purpose. run.py builds this binary
// and forwards its arguments; README.md explains the metrics.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "src/report.h"
#include "src/workloads.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// BENCHMARK.json's end_to_end list: every workload reports all of them.
constexpr MetricSpec kEndToEnd[] = {
    {"ticks_per_s", "ticks/s"},   {"setup_s", "s"},
    {"peak_rss_mb", "MB"},        {"requests_per_s", "req/s"},
    {"latency_p50_ms", "ms"},     {"latency_p99_ms", "ms"},
};

// BENCHMARK.json's per_layer list. A workload reports 0 for a layer its
// traced run does not exercise (the engine phases on serve-mix, the service
// on the engine workloads, the per-tick phases on sparse-idle).
constexpr MetricSpec kPerLayer[] = {
    {"sim.tick.ns", "ns"},
    {"sim.arrivals.ns", "ns"},
    {"sim.wake.ns", "ns"},
    {"sim.wakeups", "count"},
    {"core.spawn.ns_per_task", "ns"},
    {"sim.throttle_gate.ns", "ns"},
    {"freq.govern.ns", "ns"},
    {"sim.switch_in.ns", "ns"},
    {"sim.execute.ns_per_task_tick", "ns"},
    {"sim.task_ticks", "count"},
    {"counters.sample.ns", "ns"},
    {"thermal.step.ns", "ns"},
    {"sim.lifecycle.ns", "ns"},
    {"sim.completions", "count"},
    {"sched.balance.ns", "ns"},
    {"sched.migrations", "count"},
    {"sim.observers.ns", "ns"},
    {"sim.package_phases.share", "ratio"},
    {"sim.skip.tick_fraction", "ratio"},
    {"sim.skip.spans", "count"},
    {"sim.skip.ns_per_span", "ns"},
    {"api.parse.ns", "ns"},
    {"api.resolve.ns", "ns"},
    {"api.resolve_cached.ns", "ns"},
    {"api.jsonl.ns", "ns"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.queued_max", "count"},
    {"service.run_ms_p50", "ms"},
    {"service.overhead_ms_p50", "ms"},
    {"trace.overhead", "ratio"},
};

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <paper-dense|cluster-1024|"
               "sparse-idle|serve-mix> --seed <n> --seconds <s> --trace <0|1> [--scale <f>] "
               "[--self-test]\n",
               problem.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      args.self_test = true;
      continue;
    }
    if (i + 1 >= argc) {
      Usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args.trace = value == "1";
      if (value != "0" && value != "1") {
        Usage("--trace takes 0 or 1");
      }
    } else if (flag == "--scale") {
      args.scale = std::strtod(value.c_str(), &end);
    } else {
      Usage("unknown flag " + flag);
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) {
      Usage("malformed value for " + flag + ": " + value);
    }
  }
  if (!have_workload) {
    Usage("--workload is required");
  }
  if (args.seconds <= 0 || args.scale <= 0) {
    Usage("--seconds and --scale must be positive");
  }
  return args;
}

void PrintConditions(const Args& args) {
  std::printf("perfbench: workload %s, seed %llu, %g s, trace %d%s\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0,
              args.self_test ? ", self-test" : "");
  Note("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  Note("build type", PERFBENCH_BUILD_TYPE);
  Note("compiler", PERFBENCH_COMPILER);
  Note("scale", std::to_string(args.scale));
  for (const std::string& name : EngineWorkloadNames()) {
    Note("request " + name, EngineRequestText(name, args.seed, args.scale));
  }
  const std::vector<std::string> mix = ServeMixRequests(args.seed, args.scale);
  for (std::size_t i = 0; i < mix.size(); ++i) {
    Note("request serve-mix[" + std::to_string(i) + "]", mix[i]);
  }
}

// Puts the report's metrics in BENCHMARK.json's order, exactly the mode's
// list with its units.
void Canonicalize(Report& report, bool trace) {
  const std::vector<MetricSpec> list =
      trace ? std::vector<MetricSpec>(std::begin(kPerLayer), std::end(kPerLayer))
            : std::vector<MetricSpec>(std::begin(kEndToEnd), std::end(kEndToEnd));
  std::set<std::string> known;
  std::vector<Metric> ordered;
  for (const MetricSpec& spec : list) {
    known.insert(spec.name);
    Metric metric{spec.name, 0.0, spec.unit};
    bool found = false;
    for (const Metric& m : report.metrics()) {
      if (m.name == spec.name) {
        metric.value = m.value;
        found = true;
      }
    }
    if (!found && !trace && report.correct()) {
      report.Mismatch(std::string("end-to-end metric not measured: ") + spec.name);
    }
    ordered.push_back(metric);
  }
  for (const Metric& m : report.metrics()) {
    if (known.count(m.name) == 0) {
      report.Mismatch("metric outside BENCHMARK.json: " + m.name);
    }
  }
  report.set_metrics(std::move(ordered));
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);
  bool engine = false;
  for (const std::string& name : EngineWorkloadNames()) {
    engine = engine || name == args.workload;
  }
  if (!engine && args.workload != "serve-mix") {
    Usage("unknown workload " + args.workload);
  }
  PrintConditions(args);

  Report report;
  try {
    if (engine) {
      RunEngineWorkload(args, report);
    } else {
      RunServeMix(args, report);
    }
  } catch (const std::exception& e) {
    report.Attempt(1, false);
    report.Mismatch(std::string("benchmark aborted: ") + e.what());
  }
  Canonicalize(report, args.trace);
  // The self-test injects exactly two failing requests; any other failure,
  // or a failed output check, fails the command.
  const std::int64_t expected_failures = args.self_test ? 2 : 0;
  const bool pass = report.correct() && report.failed() == expected_failures;
  Note("error_rate", std::to_string(report.attempted() > 0 ? static_cast<double>(report.failed()) /
                                                                 static_cast<double>(report.attempted())
                                                           : 0.0));
  Note("verdict", pass ? "PASS" : "FAIL");
  std::printf("%s\n", report.Json().c_str());
  std::fflush(stdout);
  return pass ? 0 : 1;
}
