// ResultSinks and RunSession: the CsvSink goldens pinning the summary
// format byte-identical to the pre-redesign CSVs (ungoverned and governed),
// per-run trace/summary fan-out, JSONL round trips, and sink-output
// determinism across session thread counts.

#include "src/api/result_sink.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/api/run_session.h"
#include "src/sim/csv_export.h"

namespace eas {
namespace {

std::string TempPath(const std::string& name) { return testing::TempDir() + name; }

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream stream(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(stream)) << path;
  std::ostringstream buffer;
  buffer << stream.rdbuf();
  return buffer.str();
}

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

RunRecord MakeRecord(RunResult result, std::size_t index = 0, std::size_t total = 1) {
  RunRecord record;
  record.spec.name = "probe";
  record.index = index;
  record.total = total;
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

TEST(CsvSinkTest, SingleRunSummaryMatchesPreRedesignGoldenUngoverned) {
  const std::string path = TempPath("golden_ungoverned.csv");
  CsvSink sink(path, "");
  sink.Begin(1);
  sink.Consume(MakeRecord(HandBuiltResult(false)));
  sink.Finish();
  ASSERT_TRUE(sink.ok()) << sink.error();
  EXPECT_EQ(ReadFileOrDie(path), kUngovernedGolden);
}

TEST(CsvSinkTest, SingleRunSummaryMatchesPreRedesignGoldenGoverned) {
  const std::string path = TempPath("golden_governed.csv");
  CsvSink sink(path, "");
  sink.Begin(1);
  sink.Consume(MakeRecord(HandBuiltResult(true)));
  sink.Finish();
  ASSERT_TRUE(sink.ok()) << sink.error();
  EXPECT_EQ(ReadFileOrDie(path), std::string(kUngovernedGolden) + kGovernedExtraGolden);
}

TEST(CsvSinkTest, SingleRunSummaryMatchesLegacyExporter) {
  // The sink and the deprecated RunSummaryToCsv shim must agree bit for bit
  // (both render the same MetricScalars schema).
  const std::string path = TempPath("legacy_agreement.csv");
  const RunResult result = HandBuiltResult(true);
  CsvSink sink(path, "");
  sink.Begin(1);
  sink.Consume(MakeRecord(result));
  sink.Finish();
  EXPECT_EQ(ReadFileOrDie(path), RunSummaryToCsv(result));
}

TEST(CsvSinkTest, MultiRunSummaryWritesOneRowPerRun) {
  const std::string path = TempPath("multi_summary.csv");
  CsvSink sink(path, "");
  sink.Begin(2);
  RunRecord first = MakeRecord(HandBuiltResult(false), 0, 2);
  first.spec.name = "probe/seed42";
  first.spec.config.seed = 42;
  RunRecord second = MakeRecord(HandBuiltResult(false), 1, 2);
  second.spec.name = "probe/seed43";
  second.spec.config.seed = 43;
  second.result.migrations = 9;
  sink.Consume(first);
  sink.Consume(second);
  sink.Finish();
  ASSERT_TRUE(sink.ok()) << sink.error();

  std::istringstream lines(ReadFileOrDie(path));
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

TEST(CsvSinkTest, MultiRunSummaryKeepsTheColumnUnionAcrossMixedSchemas) {
  // A batch can mix ungoverned and governed runs; the table's columns are
  // the union in first-seen order, and a run without a metric renders an
  // empty cell - no run's columns are dropped by whichever came first.
  const std::string path = TempPath("mixed_summary.csv");
  CsvSink sink(path, "");
  sink.Begin(2);
  sink.Consume(MakeRecord(HandBuiltResult(false), 0, 2));  // ungoverned first
  sink.Consume(MakeRecord(HandBuiltResult(true), 1, 2));   // governed second
  sink.Finish();
  ASSERT_TRUE(sink.ok()) << sink.error();

  std::istringstream lines(ReadFileOrDie(path));
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

TEST(CsvSinkTest, TraceFilesGetPerRunSuffixes) {
  const std::string trace = TempPath("trace.csv");
  CsvSink sink("", trace);
  sink.Begin(2);

  RunResult with_trace = HandBuiltResult(false);
  Series& series = with_trace.thermal_power.Create("cpu0");
  series.Add(0, 1.0);
  series.Add(500, 2.0);
  sink.Consume(MakeRecord(with_trace, 0, 2));
  sink.Consume(MakeRecord(with_trace, 1, 2));
  sink.Finish();
  ASSERT_TRUE(sink.ok()) << sink.error();

  EXPECT_EQ(sink.TracePathFor(0), trace);
  EXPECT_EQ(sink.TracePathFor(1), trace + ".run1");
  // Run 0 keeps the historical file name and the historical bytes.
  EXPECT_EQ(ReadFileOrDie(trace), SeriesSetToCsv(with_trace.thermal_power));
  EXPECT_EQ(ReadFileOrDie(trace + ".run1"), SeriesSetToCsv(with_trace.thermal_power));
}

TEST(JsonlSinkTest, RecordsCarryMetricsAndAReplayableRequest) {
  const std::string path = TempPath("records.jsonl");
  JsonlSink sink(path);
  sink.AppendLine("{\"bench\": \"probe\"}");
  sink.Begin(1);
  RunRecord record = MakeRecord(HandBuiltResult(true));
  record.request.scenario = "paper-mixed";
  record.request.runs = 2;
  sink.Consume(record);
  sink.Finish();
  ASSERT_TRUE(sink.ok()) << sink.error();

  std::istringstream lines(ReadFileOrDie(path));
  std::string header;
  std::getline(lines, header);
  EXPECT_EQ(header, "{\"bench\": \"probe\"}");
  std::string line;
  std::getline(lines, line);
  EXPECT_NE(line.find("\"name\": \"probe\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"throughput\": 7998.80"), std::string::npos) << line;
  EXPECT_NE(line.find("\"avg_frequency_cpu0\": 0.9500"), std::string::npos) << line;
  EXPECT_NE(line.find("\"peak_thermal_w\": "), std::string::npos) << line;
  EXPECT_NE(line.find("\"steady_spread_w\": "), std::string::npos) << line;
  EXPECT_NE(line.find("\"request\": \"scenario = paper-mixed; runs = 2\""), std::string::npos)
      << line;

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

TEST(AsciiPlotSinkTest, RendersAPlotPerRecord) {
  const std::string path = TempPath("plot.txt");
  std::FILE* out = std::fopen(path.c_str(), "wb");
  ASSERT_NE(out, nullptr);
  {
    AsciiPlotSink sink(out);
    RunResult result = HandBuiltResult(false);
    Series& series = result.thermal_power.Create("cpu0");
    for (Tick t = 0; t < 10; ++t) {
      series.Add(t * 500, 30.0 + t);
    }
    RunRecord record = MakeRecord(result);
    record.spec.config.explicit_max_power_physical = 35.0;  // marker line
    sink.Consume(record);
  }
  std::fclose(out);
  const std::string text = ReadFileOrDie(path);
  EXPECT_NE(text.find("probe"), std::string::npos);
  EXPECT_NE(text.find('0'), std::string::npos);  // the series' symbol
}

// --- RunSession --------------------------------------------------------------

// Collects the record order the session streams.
class OrderSink : public ResultSink {
 public:
  void Begin(std::size_t total_records) override { total_ = total_records; }
  void Consume(const RunRecord& record) override { names_.push_back(record.spec.name); }

  std::size_t total_ = 0;
  std::vector<std::string> names_;
};

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

TEST(RunSessionTest, StreamsRecordsInRequestOrderForAnyThreadCount) {
  const std::vector<ResolvedRequest> requests = {QuickRequest("a", 2), QuickRequest("b", 1)};
  for (std::size_t threads : {1u, 4u}) {
    OrderSink order;
    RunSession session(threads);
    session.AddSink(order);
    const std::vector<RunRecord> records = session.Run(requests);
    EXPECT_EQ(order.total_, 3u);
    const std::vector<std::string> expected = {"a/seed42", "a/seed43", "b"};
    EXPECT_EQ(order.names_, expected) << threads << " threads";
    ASSERT_EQ(records.size(), 3u);
    for (std::size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(records[i].index, i);
      EXPECT_EQ(records[i].total, 3u);
      EXPECT_EQ(records[i].spec.name, expected[i]);
    }
    EXPECT_EQ(records[1].request.name, "a");  // record points back at its request
  }
}

TEST(RunSessionTest, SinkOutputIsBitIdenticalAcrossThreadCounts) {
  const std::vector<ResolvedRequest> requests = {QuickRequest("sweep", 3)};
  std::vector<std::string> outputs;
  for (std::size_t threads : {1u, 4u}) {
    const std::string path =
        TempPath("threads" + std::to_string(threads) + "_summary.csv");
    CsvSink csv(path, "");
    RunSession session(threads);
    session.AddSink(csv);
    session.Run(requests);
    csv.Finish();
    ASSERT_TRUE(csv.ok()) << csv.error();
    outputs.push_back(ReadFileOrDie(path));
  }
  EXPECT_EQ(outputs[0], outputs[1]);
  EXPECT_NE(outputs[0].find("run,name,seed,"), std::string::npos);
}

}  // namespace
}  // namespace eas
