#include "src/counters/energy_estimator.h"

#include <gtest/gtest.h>

namespace eas {
namespace {

TEST(EnergyEstimatorTest, OracleMatchesTruthOnDynamicEnergy) {
  const EnergyModel model = EnergyModel::Default();
  const EnergyEstimator estimator = EnergyEstimator::Oracle(model, 1);
  EventVector events{};
  events[EventIndex(EventType::kUopsRetired)] = 500.0;
  events[EventIndex(EventType::kMemTransactions)] = 120.0;
  EXPECT_NEAR(estimator.EstimateDynamicEnergy(events), model.DynamicEnergy(events), 1e-12);
}

TEST(EnergyEstimatorTest, OracleSplitsStaticAcrossSiblings) {
  const EnergyModel model = EnergyModel::Default();
  const EnergyEstimator smt1 = EnergyEstimator::Oracle(model, 1);
  const EnergyEstimator smt2 = EnergyEstimator::Oracle(model, 2);
  EXPECT_NEAR(smt2.static_power_per_logical(), smt1.static_power_per_logical() / 2.0, 1e-12);
}

TEST(EnergyEstimatorTest, EstimateEnergyAddsStaticShare) {
  const EnergyModel model = EnergyModel::Default();
  const EnergyEstimator estimator = EnergyEstimator::Oracle(model, 1);
  const double dynamic = estimator.EstimateDynamicEnergy(ZeroEvents());
  EXPECT_DOUBLE_EQ(dynamic, 0.0);
  // 100 ticks at 18 W static = 1.8 J.
  EXPECT_NEAR(estimator.EstimateEnergy(ZeroEvents(), 100), 18.0 * 0.1, 1e-9);
}

TEST(EnergyEstimatorTest, TaskPowerReconstruction) {
  // A full pipeline check: a task emitting bitcnts-like rates for one
  // timeslice must be estimated at ~its nominal power.
  const EnergyModel model = EnergyModel::Default();
  const EnergyEstimator estimator = EnergyEstimator::Oracle(model, 1);
  EventRates signature{};
  signature[EventIndex(EventType::kUopsRetired)] = 1.0;
  signature[EventIndex(EventType::kIntAluOps)] = 1.0;
  const EventRates rates = model.RatesForTargetPower(signature, 61.0);
  EventVector total{};
  const int ticks = 100;
  for (int t = 0; t < ticks; ++t) {
    for (std::size_t i = 0; i < kNumEventTypes; ++i) {
      total[i] += rates[i];
    }
  }
  EXPECT_NEAR(estimator.EstimateEnergy(total, ticks) / TicksToSeconds(ticks), 61.0, 1e-6);
}

}  // namespace
}  // namespace eas
