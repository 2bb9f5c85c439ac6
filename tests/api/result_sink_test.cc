// The output formats and RunSession: the SummaryCsv goldens pinning the
// summary format byte-identical to the pre-redesign CSVs (ungoverned and
// governed), the multi-run table, per-run trace names, JSONL round trips,
// the plot's title and marker, and output determinism across session
// thread counts.

#include "src/api/result_sink.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/api/run_session.h"
#include "src/base/ascii_plot.h"
#include "src/sim/csv_export.h"

namespace eas {
namespace {

// A RunResult with hand-picked scalars; `governed` adds the DVFS columns.
RunResult HandBuiltResult(bool governed) {
  RunResult result;
  result.migrations = 8;
  result.completions = 2;
  result.work_done_ticks = 79988.0;
  result.duration_seconds = 10.0;
  result.throttled_fraction = {0.25, 0.0};
  if (governed) {
    result.average_frequency = {0.95, 1.0};
    result.pstate_residency = {{0.5, 0.5}, {1.0, 0.0}};
  }
  return result;
}

RunRecord MakeRecord(RunResult result, std::size_t index = 0) {
  RunRecord record;
  record.spec.name = "probe";
  record.index = index;
  record.result = std::move(result);
  return record;
}

// The exact pre-redesign summary bytes for HandBuiltResult(false): the
// format RunSummaryToCsv wrote before the metric-schema/sink redesign.
// Changing these strings means breaking every downstream CSV consumer.
constexpr char kUngovernedGolden[] =
    "migrations,8\n"
    "completions,2\n"
    "work_done_ticks,79988.0\n"
    "duration_seconds,10.000\n"
    "throughput,7998.80\n"
    "avg_throttled_fraction,0.1250\n"
    "throttled_fraction_cpu0,0.2500\n"
    "throttled_fraction_cpu1,0.0000\n";

constexpr char kGovernedExtraGolden[] =
    "avg_frequency_cpu0,0.9500\n"
    "avg_frequency_cpu1,1.0000\n"
    "pstate_residency_cpu0_p0,0.5000\n"
    "pstate_residency_cpu0_p1,0.5000\n"
    "pstate_residency_cpu1_p0,1.0000\n"
    "pstate_residency_cpu1_p1,0.0000\n";

TEST(SummaryCsvTest, SingleRecordMatchesPreRedesignGoldenUngoverned) {
  EXPECT_EQ(SummaryCsv({MakeRecord(HandBuiltResult(false))}), kUngovernedGolden);
}

TEST(SummaryCsvTest, SingleRecordMatchesPreRedesignGoldenGoverned) {
  EXPECT_EQ(SummaryCsv({MakeRecord(HandBuiltResult(true))}),
            std::string(kUngovernedGolden) + kGovernedExtraGolden);
}

TEST(SummaryCsvTest, SingleRecordMatchesLegacyExporter) {
  // SummaryCsv and the RunSummaryToCsv shim must agree bit for bit (both
  // render the same MetricScalars schema).
  const RunResult result = HandBuiltResult(true);
  EXPECT_EQ(SummaryCsv({MakeRecord(result)}), RunSummaryToCsv(result));
}

TEST(SummaryCsvTest, MultiRecordTableWritesOneRowPerRun) {
  RunRecord first = MakeRecord(HandBuiltResult(false), 0);
  first.spec.name = "probe/seed42";
  first.spec.config.seed = 42;
  RunRecord second = MakeRecord(HandBuiltResult(false), 1);
  second.spec.name = "probe/seed43";
  second.spec.config.seed = 43;
  second.result.migrations = 9;

  std::istringstream lines(SummaryCsv({first, second}));
  std::string header;
  std::getline(lines, header);
  EXPECT_EQ(header.rfind("run,name,seed,migrations,completions,", 0), 0u) << header;
  std::string row;
  std::getline(lines, row);
  EXPECT_EQ(row.rfind("0,probe/seed42,42,8,2,", 0), 0u) << row;
  std::getline(lines, row);
  EXPECT_EQ(row.rfind("1,probe/seed43,43,9,2,", 0), 0u) << row;
  std::getline(lines, row);
  EXPECT_TRUE(row.empty());
}

TEST(SummaryCsvTest, MultiRecordTableKeepsTheColumnUnionAcrossMixedSchemas) {
  // A batch can mix ungoverned and governed runs; the table's columns are
  // the union in first-seen order, and a run without a metric renders an
  // empty cell - no run's columns are dropped by whichever came first.
  std::istringstream lines(SummaryCsv({MakeRecord(HandBuiltResult(false), 0),     // ungoverned
                                       MakeRecord(HandBuiltResult(true), 1)}));  // governed
  std::string header;
  std::getline(lines, header);
  EXPECT_NE(header.find(",avg_frequency_cpu0,"), std::string::npos) << header;
  EXPECT_NE(header.find(",pstate_residency_cpu1_p1"), std::string::npos) << header;
  std::string ungoverned_row;
  std::getline(lines, ungoverned_row);
  // The ungoverned run renders empty cells for the 6 DVFS columns.
  EXPECT_NE(ungoverned_row.find("0.0000,,,,,,"), std::string::npos) << ungoverned_row;
  std::string governed_row;
  std::getline(lines, governed_row);
  EXPECT_NE(governed_row.find("0.9500"), std::string::npos) << governed_row;
}

TEST(TracePathTest, RecordZeroKeepsTheNameLaterRunsGetSuffixes) {
  EXPECT_EQ(TracePath("trace.csv", 0), "trace.csv");
  EXPECT_EQ(TracePath("trace.csv", 1), "trace.csv.run1");
  EXPECT_EQ(TracePath("out/t.csv", 12), "out/t.csv.run12");
}

TEST(JsonlRecordLineTest, CarriesMetricsAndAReplayableRequest) {
  RunRecord record = MakeRecord(HandBuiltResult(true), 3);
  record.spec.config.seed = 5;
  record.request.scenario = "paper-mixed";
  record.request.runs = 2;
  const std::string line = JsonlRecordLine(record);
  EXPECT_EQ(line.rfind("{\"name\": \"probe\", \"seed\": 5, \"run\": 3, ", 0), 0u) << line;
  EXPECT_NE(line.find("\"throughput\": 7998.80"), std::string::npos) << line;
  EXPECT_NE(line.find("\"avg_frequency_cpu0\": 0.9500"), std::string::npos) << line;
  EXPECT_NE(line.find("\"peak_thermal_w\": "), std::string::npos) << line;
  EXPECT_NE(line.find("\"steady_spread_w\": "), std::string::npos) << line;
  EXPECT_NE(line.find("\"request\": \"scenario = paper-mixed; runs = 2\""), std::string::npos)
      << line;
  EXPECT_EQ(line.find('\n'), std::string::npos) << line;

  // The embedded request string parses back into the originating request.
  const std::string needle = "\"request\": \"";
  const std::size_t start = line.find(needle) + needle.size();
  const std::string request_text = line.substr(start, line.find('"', start) - start);
  const auto parsed = ParseRunRequest(request_text);
  ASSERT_TRUE(parsed.ok()) << parsed.error().Render();
  EXPECT_EQ(*parsed, record.request);
}

TEST(JsonEscapeTest, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(RecordPlotTest, TitleLineThenThePlotWithTheLimitMarker) {
  RunResult result = HandBuiltResult(false);
  Series& series = result.thermal_power.Create("cpu0");
  for (Tick t = 0; t < 10; ++t) {
    series.Add(t * 500, 30.0 + t);
  }
  RunRecord record = MakeRecord(result);
  record.spec.config.seed = 7;
  PlotOptions options;
  options.y_label = "W";
  const std::string title = "-- probe (seed 7) per-CPU thermal power --\n";
  EXPECT_EQ(RecordPlot(record), title + RenderPlot(result.thermal_power, options));

  // An explicit power limit draws the dashed marker line at that limit.
  record.spec.config.explicit_max_power_physical = 35.0;
  options.marker = 35.0;
  options.use_marker = true;
  EXPECT_EQ(RecordPlot(record), title + RenderPlot(result.thermal_power, options));
}

// --- RunSession --------------------------------------------------------------

ResolvedRequest QuickRequest(const std::string& name, std::uint64_t runs) {
  RunRequest request;
  request.name = name;
  request.topology = "1:2:1";
  request.workload = "hot:2";
  request.duration_s = 2.0;
  request.runs = runs;
  auto resolved = ResolveRunRequest(request);
  EXPECT_TRUE(resolved.ok()) << resolved.error().Render();
  return *resolved;
}

TEST(RunSessionTest, ReturnsRecordsInRequestOrderForAnyThreadCount) {
  const std::vector<ResolvedRequest> requests = {QuickRequest("a", 2), QuickRequest("b", 1)};
  for (std::size_t threads : {1u, 4u}) {
    const std::vector<RunRecord> records = RunSession(threads).Run(requests);
    const std::vector<std::string> expected = {"a/seed42", "a/seed43", "b"};
    ASSERT_EQ(records.size(), 3u) << threads << " threads";
    for (std::size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(records[i].index, i);
      EXPECT_EQ(records[i].spec.name, expected[i]) << threads << " threads";
    }
    EXPECT_EQ(records[1].request.name, "a");  // record points back at its request
    EXPECT_EQ(records[2].request.name, "b");
  }
}

TEST(RunSessionTest, SummaryIsBitIdenticalAcrossThreadCounts) {
  const std::vector<ResolvedRequest> requests = {QuickRequest("sweep", 3)};
  const std::string serial = SummaryCsv(RunSession(1).Run(requests));
  EXPECT_EQ(SummaryCsv(RunSession(4).Run(requests)), serial);
  EXPECT_EQ(serial.rfind("run,name,seed,", 0), 0u) << serial;
}

}  // namespace
}  // namespace eas
