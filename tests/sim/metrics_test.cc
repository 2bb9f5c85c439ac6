// MetricScalars: the scalar schema's naming, ordering and formatting, and
// the governed-columns presence rule.

#include "src/sim/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace eas {
namespace {

RunResult SampleResult(bool governed) {
  RunResult result;
  result.migrations = 3;
  result.completions = 1;
  result.work_done_ticks = 1234.5;
  result.duration_seconds = 2.0;
  result.throttled_fraction = {0.5};
  if (governed) {
    result.average_frequency = {0.9};
    result.pstate_residency = {{0.25, 0.75}};
  }
  return result;
}

std::vector<std::string> Names(const std::vector<MetricValue>& metrics) {
  std::vector<std::string> names;
  for (const MetricValue& metric : metrics) {
    names.push_back(metric.name);
  }
  return names;
}

TEST(MetricScalarsTest, ScalarsKeepTheHistoricalSummaryOrder) {
  const std::vector<std::string> names = Names(MetricScalars(SampleResult(false)));
  const std::vector<std::string> expected = {
      "migrations",       "completions", "work_done_ticks", "duration_seconds",
      "throughput",       "avg_throttled_fraction", "throttled_fraction_cpu0"};
  EXPECT_EQ(names, expected);
}

TEST(MetricScalarsTest, GovernedRunsGrowTheDvfsColumns) {
  const std::vector<std::string> names = Names(MetricScalars(SampleResult(true)));
  const std::vector<std::string> expected = {
      "migrations",          "completions",   "work_done_ticks",
      "duration_seconds",    "throughput",    "avg_throttled_fraction",
      "throttled_fraction_cpu0", "avg_frequency_cpu0", "pstate_residency_cpu0_p0",
      "pstate_residency_cpu0_p1"};
  EXPECT_EQ(names, expected);
}

TEST(MetricScalarsTest, FormatMatchesTheHistoricalCsvRendering) {
  const std::vector<MetricValue> metrics = MetricScalars(SampleResult(false));
  // migrations: integral, no decimals; work_done_ticks %.1f;
  // duration_seconds %.3f; throughput %.2f; fractions %.4f.
  EXPECT_EQ(FormatMetricValue(metrics[0]), "3");
  EXPECT_EQ(FormatMetricValue(metrics[2]), "1234.5");
  EXPECT_EQ(FormatMetricValue(metrics[3]), "2.000");
  EXPECT_EQ(FormatMetricValue(metrics[4]), "617.25");
  EXPECT_EQ(FormatMetricValue(metrics[6]), "0.5000");
}

}  // namespace
}  // namespace eas
