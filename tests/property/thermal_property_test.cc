// Property suite: thermal-stack invariants across parameter sweeps.

#include <gtest/gtest.h>

#include <cmath>

#include "src/sim/machine.h"
#include "src/thermal/rc_model.h"
#include "src/thermal/throttle_controller.h"
#include "src/workloads/programs.h"

namespace eas {
namespace {

// --- RC model invariants over (R, C) -----------------------------------------

struct RcCase {
  double resistance;
  double capacitance;
};

class RcModelProperty : public ::testing::TestWithParam<RcCase> {};

TEST_P(RcModelProperty, SteadyStateMatchesAnalytic) {
  ThermalParams params;
  params.resistance = GetParam().resistance;
  params.capacitance = GetParam().capacitance;
  RcThermalModel model(params);
  const double tau = params.TimeConstant();
  const int steps = static_cast<int>(12.0 * tau / 0.001);
  for (int i = 0; i < steps; ++i) {
    model.Step(47.0, 0.001);
  }
  EXPECT_NEAR(model.temperature(), params.SteadyStateTemp(47.0), 0.05);
}

TEST_P(RcModelProperty, NeverOvershoots) {
  ThermalParams params;
  params.resistance = GetParam().resistance;
  params.capacitance = GetParam().capacitance;
  RcThermalModel model(params);
  const double target = params.SteadyStateTemp(55.0);
  for (int i = 0; i < 100'000; ++i) {
    model.Step(55.0, 0.001);
    ASSERT_LE(model.temperature(), target + 1e-9);
    ASSERT_GE(model.temperature(), params.ambient - 1e-9);
  }
}

TEST_P(RcModelProperty, MonotoneInPower) {
  ThermalParams params;
  params.resistance = GetParam().resistance;
  params.capacitance = GetParam().capacitance;
  RcThermalModel low(params);
  RcThermalModel high(params);
  for (int i = 0; i < 30'000; ++i) {
    low.Step(30.0, 0.001);
    high.Step(50.0, 0.001);
    ASSERT_LE(low.temperature(), high.temperature() + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Params, RcModelProperty,
                         ::testing::Values(RcCase{0.2, 20.0}, RcCase{0.3, 40.0},
                                           RcCase{0.4, 30.0}, RcCase{0.25, 48.0},
                                           RcCase{0.72, 16.7}));

// --- throttle duty cycle across limits ----------------------------------------
//
// A 61 W task on a limited package must duty-cycle so the average power is
// the limit: throttled fraction = (P_task - P_limit) / (P_task - P_halt).

class ThrottleDutyProperty : public ::testing::TestWithParam<double> {};

TEST_P(ThrottleDutyProperty, DutyCycleMatchesAnalytic) {
  const double limit = GetParam();
  MachineConfig config;
  config.topology = CpuTopology(1, 1, 1);
  config.cooling = CoolingProfile::Uniform(1, ThermalParams{});
  config.explicit_max_power_physical = limit;
  config.throttling_enabled = true;
  config.sched = EnergySchedConfig::Baseline();
  config.estimator_weights = EnergyModel::Default().weights();
  Machine machine(config);
  SimulationState& state = machine.state();
  const ProgramLibrary library(EnergyModel::Default());
  state.Spawn(library.bitcnts());
  machine.Run(240'000);  // 4 minutes >> tau

  const double expected = (61.0 - limit) / (61.0 - 13.6);
  EXPECT_NEAR(state.throttle(0).ThrottledFraction(), expected, 0.05) << "limit " << limit;
}

INSTANTIATE_TEST_SUITE_P(Limits, ThrottleDutyProperty,
                         ::testing::Values(30.0, 40.0, 50.0, 55.0));

// --- hot migration cadence vs the thermal time constant ------------------------
//
// From idle, the sum of sibling thermal powers reaches the limit L after
//   t = tau * ln((P - P_idle) / (P - L))
// with P the package power under the task. The migrator must hop on roughly
// that cadence.

class MigrationCadenceProperty : public ::testing::TestWithParam<double> {};

TEST_P(MigrationCadenceProperty, HopIntervalMatchesAnalytic) {
  const double limit = GetParam();
  MachineConfig config;
  config.topology = CpuTopology::PaperXSeries445(true);
  config.cooling = CoolingProfile::PaperXSeries445();
  config.explicit_max_power_physical = limit;
  config.throttling_enabled = true;
  config.sched = EnergySchedConfig::EnergyAware();
  config.estimator_weights = EnergyModel::Default().weights();
  Machine machine(config);
  SimulationState& state = machine.state();
  const ProgramLibrary library(EnergyModel::Default());
  Task* task = state.Spawn(library.bitcnts());

  std::vector<Tick> hop_times;
  int last_cpu = task->cpu();
  for (Tick t = 0; t < 150'000; ++t) {
    machine.Run(1);
    const int cpu = SimulationState::TaskCpu(*task);
    if (cpu >= 0 && cpu != last_cpu) {
      hop_times.push_back(t);
      last_cpu = cpu;
    }
  }
  ASSERT_GE(hop_times.size(), 4u);

  const double tau = 12.0;
  const double package_power = 61.0;  // bitcnts with idle sibling
  const double idle_power = 13.6;
  const double analytic =
      tau * std::log((package_power - idle_power) / (package_power - limit));
  // Hops into not-fully-cooled packages shorten later intervals; check the
  // first hop (from a cold machine) against the analytic heat-up time.
  const double first_hop_seconds = TicksToSeconds(hop_times[0]);
  EXPECT_NEAR(first_hop_seconds, analytic, analytic * 0.35 + 1.0) << "limit " << limit;
}

INSTANTIATE_TEST_SUITE_P(Limits, MigrationCadenceProperty, ::testing::Values(35.0, 40.0, 45.0));

}  // namespace
}  // namespace eas
