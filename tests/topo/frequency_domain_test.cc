// P-state table and FrequencyDomain: transition clamping, residency
// statistics and the derived quantities RunResult exports.

#include "src/topo/frequency_domain.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace eas {
namespace {

TEST(PStateTableTest, RejectsMalformedTables) {
  EXPECT_THROW(PStateTable(std::vector<PState>{}), std::invalid_argument);
  EXPECT_THROW(PStateTable({PState{0.9, 1.0}}), std::invalid_argument);
  EXPECT_THROW(PStateTable({PState{1.0, 0.9}}), std::invalid_argument);
  EXPECT_NO_THROW(PStateTable({PState{1.0, 1.0}, PState{0.5, 0.8}}));
}

TEST(PStateTableTest, DefaultLadderIsMonotonic) {
  const PStateTable table = PStateTable::Default();
  ASSERT_GE(table.size(), 2u);
  EXPECT_DOUBLE_EQ(table.at(0).frequency_multiplier, 1.0);
  EXPECT_DOUBLE_EQ(table.at(0).voltage, 1.0);
  EXPECT_DOUBLE_EQ(table.at(0).EnergyScale(), 1.0);
  for (std::size_t i = 1; i < table.size(); ++i) {
    EXPECT_LT(table.at(i).frequency_multiplier, table.at(i - 1).frequency_multiplier) << i;
    EXPECT_LE(table.at(i).voltage, table.at(i - 1).voltage) << i;
    // Deeper states must save more power than they cost frequency - the
    // whole point of voltage scaling: power ~ f * V^2 falls faster than f
    // exactly when each event costs less energy than at P0.
    EXPECT_LT(table.at(i).EnergyScale(), 1.0) << i;
  }
}

TEST(FrequencyDomainTest, SetPStateClampsAtTheDeepestState) {
  FrequencyDomain domain{PStateTable::Default()};
  EXPECT_EQ(domain.current(), 0u);
  domain.SetPState(domain.table().deepest());
  EXPECT_EQ(domain.current(), domain.table().deepest());
  domain.SetPState(99);  // past the end: clamped
  EXPECT_EQ(domain.current(), domain.table().deepest());
  domain.SetPState(0);
  EXPECT_EQ(domain.current(), 0u);
}

TEST(FrequencyDomainTest, ResidencyAndAverageFrequency) {
  FrequencyDomain domain{PStateTable::Default()};
  domain.AccountTick();  // P0
  domain.AccountTick();  // P0
  domain.SetPState(2);
  domain.AccountTick();  // P2
  domain.AccountTick();  // P2

  EXPECT_EQ(domain.total_ticks(), 4);
  EXPECT_DOUBLE_EQ(domain.ResidencyFraction(0), 0.5);
  EXPECT_DOUBLE_EQ(domain.ResidencyFraction(2), 0.5);
  EXPECT_DOUBLE_EQ(domain.ResidencyFraction(1), 0.0);
  const double p2 = domain.table().at(2).frequency_multiplier;
  EXPECT_DOUBLE_EQ(domain.AverageFrequency(), (2.0 * 1.0 + 2.0 * p2) / 4.0);
}

TEST(FrequencyDomainTest, NeverAccountedDomainReadsFullSpeed) {
  FrequencyDomain domain{PStateTable::Default()};
  domain.SetPState(2);
  EXPECT_EQ(domain.total_ticks(), 0);
  EXPECT_DOUBLE_EQ(domain.ResidencyFraction(2), 0.0);
  // Never-governed domains read as full speed, not 0.
  EXPECT_DOUBLE_EQ(domain.AverageFrequency(), 1.0);
}

}  // namespace
}  // namespace eas
