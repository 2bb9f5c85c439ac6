// Ablations for the design choices DESIGN.md calls out:
//
//  A. Dual-metric condition (Section 4.3/4.4): disable the thermal-power
//     hysteresis so the energy step acts on runqueue power alone ->
//     ping-pong migrations.
//  B. Energy-aware initial placement (Section 4.6): turn it off for a
//     short-task workload -> the throughput benefit shrinks.
//  C. Profile exponential-average weight (Section 3.3): sweep p; too large
//     reacts to spikes (more migrations), too small reacts late.
//
// Every ablation cell is one ExperimentSpec; the whole grid runs through the
// parallel ExperimentRunner in a single sweep.

#include <cstdio>
#include <vector>

#include "src/sim/experiment_runner.h"
#include "src/workloads/programs.h"
#include "src/workloads/workload_builder.h"

namespace {

eas::MachineConfig BaseConfig() {
  eas::MachineConfig config;
  config.topology = eas::CpuTopology::PaperXSeries445(/*smt_enabled=*/false);
  config.cooling = eas::CoolingProfile::PaperXSeries445();
  config.explicit_max_power_physical = 60.0;
  config.sched = eas::EnergySchedConfig::EnergyAware();
  return config;
}

}  // namespace

int main() {
  std::printf("== Ablations: what each design ingredient buys ==\n\n");
  const eas::Tick duration = 300'000;  // 5 minutes

  const eas::ProgramLibrary library(eas::EnergyModel::Default());
  const auto mixed = eas::MixedWorkload(library, 3);
  std::vector<const eas::Program*> shorts;
  for (int i = 0; i < 24; ++i) {
    shorts.push_back(i % 2 == 0 ? &library.short_hot() : &library.short_cool());
  }

  std::vector<eas::ExperimentSpec> specs;
  auto add = [&specs, duration](const char* name, const eas::MachineConfig& config,
                                const std::vector<const eas::Program*>& workload) {
    eas::ExperimentSpec spec;
    spec.name = name;
    spec.config = config;
    spec.options.duration_ticks = duration;
    spec.workload = workload;
    specs.push_back(std::move(spec));
  };

  // --- A: dual-metric hysteresis -------------------------------------------
  add("A/full", BaseConfig(), mixed);
  {
    eas::MachineConfig no_thermal = BaseConfig();
    // Disabling the slow thermal condition removes the hysteresis: any
    // runqueue-power difference beyond the margin triggers a pull.
    no_thermal.sched.balancer.thermal_ratio_margin = -10.0;
    add("A/no_thermal", no_thermal, mixed);
    eas::MachineConfig no_rq = BaseConfig();
    // Disabling the fast runqueue condition allows over-pulling from CPUs
    // that are merely *still* warm (temperature lags the tasks that left).
    no_rq.sched.balancer.rq_ratio_margin = -10.0;
    add("A/no_rq", no_rq, mixed);
  }

  // --- B: initial placement -------------------------------------------------
  for (const bool placement : {true, false}) {
    eas::MachineConfig config = BaseConfig();
    config.topology = eas::CpuTopology::PaperXSeries445(true);
    config.explicit_max_power_physical.reset();
    config.temp_limit = 38.0;
    config.throttling_enabled = true;
    // Isolate the ingredient: placement is the only energy-aware feature,
    // as in Section 6.2's short-task experiment where tasks die before
    // the balancer would ever touch them.
    config.sched.balancer_name = "load_only";
    config.sched.hot_task_migration = false;
    config.sched.energy_aware_placement = placement;
    add(placement ? "B/placement_on" : "B/placement_off", config, shorts);
  }

  // --- C: profile weight -----------------------------------------------------
  const double weights[] = {0.05, 0.15, 0.3, 0.6, 0.9};
  for (const double p : weights) {
    eas::MachineConfig config = BaseConfig();
    config.profile_sample_weight = p;
    add(("C/weight=" + std::to_string(p)).c_str(), config, mixed);
  }

  const std::vector<eas::RunResult> results = eas::ExperimentRunner().RunAll(specs);

  std::printf("A. energy-step conditions (mixed workload, migrations in 5 min):\n");
  std::printf("   %-42s %8lld\n", "both conditions (paper design)",
              static_cast<long long>(results[0].migrations));
  std::printf("   %-42s %8lld\n", "without thermal condition (no hysteresis)",
              static_cast<long long>(results[1].migrations));
  std::printf("   %-42s %8lld\n", "without runqueue condition (over-pulling)",
              static_cast<long long>(results[2].migrations));

  std::printf("\nB. energy-aware initial placement (short tasks, 38 C limit, throttling):\n");
  std::printf("   %-42s %8.0f work/s, %4.1f%% throttled\n", "with energy-aware placement",
              results[3].Throughput(), results[3].AverageThrottledFraction() * 100);
  std::printf("   %-42s %8.0f work/s, %4.1f%% throttled\n", "least-loaded placement only",
              results[4].Throughput(), results[4].AverageThrottledFraction() * 100);

  std::printf("\nC. profile exponential-average weight p (migrations in 5 min):\n");
  for (std::size_t i = 0; i < 5; ++i) {
    std::printf("   p = %-4.2f %8lld\n", weights[i],
                static_cast<long long>(results[5 + i].migrations));
  }
  std::printf("\nExpected: removing either energy-step condition inflates migrations\n"
              "(ping-pong / over-balancing); placement-off costs throughput on short\n"
              "tasks; very large p makes profiles twitchy, very small p makes them\n"
              "stale - both increase churn versus the paper's middle ground.\n");
  return 0;
}
