// Integration: the single-metric strawmen on the full machine. Section 4.3
// predicts power-only balancing ping-pongs and temperature-only balancing
// over-balances; both should migrate more than the dual-metric design for
// the same workload without balancing any better.

#include <gtest/gtest.h>

#include <string>

#include "src/sim/experiment.h"
#include "src/workloads/programs.h"
#include "src/workloads/workload_builder.h"

namespace eas {
namespace {

RunResult RunWithPolicy(const std::string& policy, Tick duration) {
  MachineConfig config;
  config.topology = CpuTopology::PaperXSeries445(false);
  config.cooling = CoolingProfile::PaperXSeries445();
  config.explicit_max_power_physical = 60.0;
  config.sched = EnergySchedConfig::EnergyAware();
  config.sched.balancer_name = policy;
  config.sched.hot_task_migration = false;  // isolate the balancer

  const ProgramLibrary library(EnergyModel::Default());
  Experiment::Options options;
  options.duration_ticks = duration;
  options.sample_interval_ticks = 1'000;
  Experiment experiment(config, options);
  return experiment.Run(MixedWorkload(library, 3));
}

TEST(NaivePolicyIntegration, PowerOnlyMigratesMoreThanDualMetric) {
  const Tick duration = 120'000;
  const RunResult dual = RunWithPolicy("energy_aware", duration);
  const RunResult power_only = RunWithPolicy("power_only", duration);
  EXPECT_GT(power_only.migrations, dual.migrations * 2)
      << "power-only should ping-pong (dual: " << dual.migrations
      << ", power-only: " << power_only.migrations << ")";
}

TEST(NaivePolicyIntegration, TemperatureOnlyMigratesMoreThanDualMetric) {
  const Tick duration = 120'000;
  const RunResult dual = RunWithPolicy("energy_aware", duration);
  const RunResult temp_only = RunWithPolicy("temperature_only", duration);
  EXPECT_GT(temp_only.migrations, dual.migrations)
      << "temperature-only should over-balance (dual: " << dual.migrations
      << ", temp-only: " << temp_only.migrations << ")";
}

TEST(NaivePolicyIntegration, DualMetricBalancesAtLeastAsWell) {
  const Tick duration = 120'000;
  const Tick settle = 60'000;
  const RunResult dual = RunWithPolicy("energy_aware", duration);
  const RunResult power_only = RunWithPolicy("power_only", duration);
  // The extra churn buys nothing: the dual-metric spread is as tight.
  EXPECT_LE(dual.MaxThermalSpreadAfter(settle),
            power_only.MaxThermalSpreadAfter(settle) + 2.0);
}

}  // namespace
}  // namespace eas
