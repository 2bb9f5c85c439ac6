// Quickstart: build the paper's machine, run a mixed workload with and
// without energy-aware scheduling, and compare thermal behaviour.
//
//   $ ./quickstart
//
// Walks through the public API end to end: a run is *described* as a
// RunRequest (the same `key = value` text `eastool --request` reads),
// *resolved* against the registries into runnable specs, and *executed* by
// a RunSession that returns one RunRecord per run. The baseline and
// energy-aware runs execute concurrently on the session's thread pool.

#include <cstdio>
#include <string>
#include <vector>

#include "src/api/run_session.h"
#include "src/sim/scenario.h"

namespace {

eas::ResolvedRequest MakeRequest(bool energy_aware) {
  // 1. Describe the run as data: the paper's 8-way Xeon (SMT off for
  //    clarity), a 60 W per-package power budget, three instances of each
  //    Table 2 program, two simulated minutes. The exact same text could
  //    sit in a file and run via `eastool --request`.
  const std::string text = std::string("name = ") +
                           (energy_aware ? "energy_aware" : "baseline") +
                           "; policy = " + (energy_aware ? "energy_aware" : "load_only") +
                           "; workload = mixed:3; max-power = 60; duration-s = 120";
  const auto request = eas::ParseRunRequest(text);

  // 2. Resolve it: registry names are validated here, scenario defaults and
  //    the machine model are filled in, and the request expands into one
  //    ExperimentSpec per run. Failures come back as a structured
  //    RequestError; Render() is the human-readable diagnostic.
  const auto resolved = eas::ResolveRunRequest(*request);
  if (!resolved.ok()) {
    std::fprintf(stderr, "resolve: %s\n", resolved.error().Render().c_str());
    std::exit(1);
  }
  return *resolved;
}

}  // namespace

int main() {
  std::printf("== quickstart: energy-aware scheduling on a simulated 8-way SMP ==\n\n");

  // 3. Execute: one session runs both requests concurrently and returns a
  //    RunRecord per run (request + spec + result). The output formats of
  //    src/api/result_sink.h (SummaryCsv, JsonlRecordLine, RecordPlot)
  //    render these records, as eastool does once a sweep has finished.
  const eas::RunSession session;
  const std::vector<eas::RunRecord> records =
      session.Run({MakeRequest(false), MakeRequest(true)});
  const eas::RunResult& baseline = records[0].result;
  const eas::RunResult& balanced = records[1].result;

  const eas::Tick settle = 50'000;  // skip the thermal warm-up
  std::printf("thermal power spread across CPUs (after warm-up):\n");
  std::printf("  baseline scheduler   : %5.1f W\n", baseline.MaxThermalSpreadAfter(settle));
  std::printf("  energy-aware balancer: %5.1f W\n", balanced.MaxThermalSpreadAfter(settle));
  std::printf("\ntask migrations in 2 minutes:\n");
  std::printf("  baseline scheduler   : %lld\n",
              static_cast<long long>(baseline.migrations));
  std::printf("  energy-aware balancer: %lld\n",
              static_cast<long long>(balanced.migrations));
  std::printf("\nhottest CPU (peak thermal power):\n");
  std::printf("  baseline scheduler   : %5.1f W\n", baseline.thermal_power.MaxValue());
  std::printf("  energy-aware balancer: %5.1f W\n", balanced.thermal_power.MaxValue());
  std::printf("\nEnergy balancing narrows the band of per-CPU power consumption, so no\n"
              "single CPU approaches its thermal limit while others stay cool.\n");

  // 4. The catalogue, declaratively: every registered scenario is also a
  //    canned request (`eastool --list-scenarios` prints the names,
  //    `eastool --scenario NAME` runs one). Overriding its duration is one
  //    field write away.
  eas::RunRequest scenario = eas::RunRequestForScenario("paper-mixed");
  scenario.duration_s = 120.0;
  const auto resolved = eas::ResolveRunRequest(scenario);
  if (!resolved.ok()) {
    std::fprintf(stderr, "resolve: %s\n", resolved.error().Render().c_str());
    return 1;
  }
  const eas::RunResult rerun = session.Run(*resolved)[0].result;
  std::printf("\nscenario \"paper-mixed\" (same machine, via the ScenarioRegistry):\n");
  std::printf("  spread after warm-up : %5.1f W\n", rerun.MaxThermalSpreadAfter(settle));
  return 0;
}
