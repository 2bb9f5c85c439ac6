#include "src/sim/csv_export.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace eas {
namespace {

TEST(CsvExportTest, HeaderAndRows) {
  SeriesSet set;
  Series& a = set.Create("cpu0");
  Series& b = set.Create("cpu1");
  a.Add(0, 1.5);
  a.Add(100, 2.5);
  b.Add(0, 3.0);
  b.Add(100, 4.0);
  const std::string csv = SeriesSetToCsv(set);
  std::istringstream lines(csv);
  std::string line;
  std::getline(lines, line);
  EXPECT_EQ(line, "tick,cpu0,cpu1");
  std::getline(lines, line);
  EXPECT_EQ(line, "0,1.5000,3.0000");
  std::getline(lines, line);
  EXPECT_EQ(line, "100,2.5000,4.0000");
}

TEST(CsvExportTest, EmptySetHasHeaderOnly) {
  SeriesSet set;
  EXPECT_EQ(SeriesSetToCsv(set), "tick\n");
}

TEST(CsvExportTest, RaggedSeriesPadded) {
  SeriesSet set;
  Series& a = set.Create("a");
  Series& b = set.Create("b");
  a.Add(0, 1.0);
  a.Add(1, 2.0);
  b.Add(0, 9.0);
  const std::string csv = SeriesSetToCsv(set);
  EXPECT_NE(csv.find("1,2.0000,\n"), std::string::npos);
}

TEST(CsvExportTest, FirstSeriesShorterKeepsAllRows) {
  // Rows must run to the longest series, not the first: a short first
  // series used to silently truncate every other series' tail.
  SeriesSet set;
  Series& a = set.Create("a");
  Series& b = set.Create("b");
  a.Add(0, 1.0);
  b.Add(0, 9.0);
  b.Add(100, 8.0);
  b.Add(200, 7.0);
  const std::string csv = SeriesSetToCsv(set);
  std::istringstream lines(csv);
  std::string line;
  std::getline(lines, line);
  EXPECT_EQ(line, "tick,a,b");
  std::getline(lines, line);
  EXPECT_EQ(line, "0,1.0000,9.0000");
  // Rows past the first series' end: tick comes from the longer series,
  // the exhausted series pads with an empty cell.
  std::getline(lines, line);
  EXPECT_EQ(line, "100,,8.0000");
  std::getline(lines, line);
  EXPECT_EQ(line, "200,,7.0000");
  EXPECT_FALSE(std::getline(lines, line));
}

TEST(CsvExportTest, MixedLengthRoundTripPreservesEverySample) {
  // Round-trip check: every sample of every series appears in the CSV,
  // whichever series happens to be first.
  SeriesSet set;
  Series& task = set.Create("task");  // finishes early
  Series& cpu = set.Create("cpu");
  for (int i = 0; i < 3; ++i) {
    task.Add(i * 500, 1.0 + i);
  }
  for (int i = 0; i < 7; ++i) {
    cpu.Add(i * 500, 40.0 + i);
  }
  const std::string csv = SeriesSetToCsv(set);
  std::istringstream lines(csv);
  std::string line;
  std::getline(lines, line);  // header
  std::size_t rows = 0;
  long long last_tick = -1;
  while (std::getline(lines, line)) {
    ++rows;
    last_tick = std::stoll(line.substr(0, line.find(',')));
  }
  EXPECT_EQ(rows, 7u);
  EXPECT_EQ(last_tick, 3000);
  EXPECT_NE(csv.find("46.0000"), std::string::npos);  // cpu's tail survived
}

TEST(CsvExportTest, RunSummaryFields) {
  RunResult result;
  result.migrations = 12;
  result.completions = 34;
  result.work_done_ticks = 5000.0;
  result.duration_seconds = 10.0;
  result.throttled_fraction = {0.25, 0.0};
  const std::string csv = RunSummaryToCsv(result);
  EXPECT_NE(csv.find("migrations,12"), std::string::npos);
  EXPECT_NE(csv.find("throughput,500.00"), std::string::npos);
  EXPECT_NE(csv.find("throttled_fraction_cpu0,0.2500"), std::string::npos);
  EXPECT_NE(csv.find("avg_throttled_fraction,0.1250"), std::string::npos);
}

TEST(CsvExportTest, WriteFileRoundTrip) {
  const std::string path = "/tmp/eas_csv_export_test.csv";
  ASSERT_TRUE(WriteFile(path, "hello,world\n"));
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "hello,world");
  std::remove(path.c_str());
}

TEST(CsvExportTest, WriteFileFailsOnBadPath) {
  EXPECT_FALSE(WriteFile("/nonexistent-dir/x/y.csv", "data"));
}

TEST(CsvExportTest, WriteFileFailsOnFullDevice) {
  // /dev/full opens and buffers the write, then fails it with ENOSPC when
  // the stream is flushed.
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "no /dev/full on this system";
  }
  EXPECT_FALSE(WriteFile("/dev/full", "data"));
}

}  // namespace
}  // namespace eas
