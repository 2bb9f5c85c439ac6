// SinkRegistry: output destinations as one `kind:rest` string, resolved
// through the same registry pattern policies and governors use. The tests
// pin the built-in catalogue, the split rule (first ':' only - paths keep
// their own colons), and the structured diagnostics for bad specs.

#include "src/api/sink_registry.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace eas {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "sink_registry_" + name;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

RunRecord ProbeRecord() {
  RunRecord record;
  record.spec.name = "probe";
  record.spec.config.seed = 7;
  Series& series = record.result.thermal_power.Create("cpu0");
  for (Tick t = 0; t < 4; ++t) {
    series.Add(t * 500, 30.0 + static_cast<double>(t));
  }
  return record;
}

TEST(SinkRegistryTest, GlobalCarriesTheBuiltinKinds) {
  SinkRegistry& global = SinkRegistry::Global();
  for (const char* kind : {"csv", "trace", "jsonl", "plot"}) {
    EXPECT_TRUE(global.Contains(kind)) << kind;
  }
  EXPECT_FALSE(global.Contains("bogus"));
  const std::vector<std::string> names = global.Names();
  EXPECT_EQ(names, (std::vector<std::string>{"csv", "jsonl", "plot", "trace"}));
}

TEST(SinkRegistryTest, CreatedJsonlSinkWritesTheRecordLine) {
  const std::string path = TempPath("records.jsonl");
  auto sink = SinkRegistry::Global().Create("jsonl:" + path);
  ASSERT_TRUE(sink.ok()) << sink.error().Render();
  (*sink)->Begin(1);
  const RunRecord record = ProbeRecord();
  (*sink)->Consume(record);
  (*sink)->Finish();
  EXPECT_TRUE((*sink)->ok()) << (*sink)->error();
  EXPECT_EQ(ReadAll(path), JsonlRecordLine(record) + "\n");
  std::remove(path.c_str());
}

TEST(SinkRegistryTest, CreatedCsvAndPlotSinksWriteTheirFiles) {
  const std::string csv_path = TempPath("summary.csv");
  auto csv = SinkRegistry::Global().Create("csv:" + csv_path);
  ASSERT_TRUE(csv.ok()) << csv.error().Render();
  (*csv)->Begin(1);
  (*csv)->Consume(ProbeRecord());
  (*csv)->Finish();
  EXPECT_TRUE((*csv)->ok()) << (*csv)->error();
  EXPECT_FALSE(ReadAll(csv_path).empty());
  std::remove(csv_path.c_str());

  const std::string plot_path = TempPath("plot.txt");
  auto plot = SinkRegistry::Global().Create("plot:" + plot_path);
  ASSERT_TRUE(plot.ok()) << plot.error().Render();
  (*plot)->Begin(1);
  (*plot)->Consume(ProbeRecord());
  (*plot)->Finish();
  EXPECT_TRUE((*plot)->ok()) << (*plot)->error();
  EXPECT_NE(ReadAll(plot_path).find("probe"), std::string::npos);
  std::remove(plot_path.c_str());
}

TEST(SinkRegistryTest, RestKeepsItsOwnColons) {
  // Only the first ':' splits kind from rest; a path with colons (timestamped
  // directories, Windows-ish names) passes through verbatim.
  const std::string path = TempPath("12:30:05.jsonl");
  auto sink = SinkRegistry::Global().Create("jsonl:" + path);
  ASSERT_TRUE(sink.ok()) << sink.error().Render();
  (*sink)->Begin(1);
  (*sink)->Consume(ProbeRecord());
  (*sink)->Finish();
  EXPECT_TRUE((*sink)->ok()) << (*sink)->error();
  EXPECT_FALSE(ReadAll(path).empty());
  std::remove(path.c_str());
}

TEST(SinkRegistryTest, BadSpecsDiagnoseStructurally) {
  const SinkRegistry& global = SinkRegistry::Global();

  auto unknown = global.Create("bogus:/tmp/x");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.error().code, RequestErrorCode::kUnknownName);
  EXPECT_EQ(unknown.error().key, "sink");
  EXPECT_EQ(unknown.error().message,
            "unknown sink kind \"bogus\" (known: csv, jsonl, plot, trace)");

  auto no_colon = global.Create("justapath");
  ASSERT_FALSE(no_colon.ok());
  EXPECT_EQ(no_colon.error().code, RequestErrorCode::kBadValue);
  EXPECT_NE(no_colon.error().message.find("kind:path"), std::string::npos);

  auto empty_kind = global.Create(":/tmp/x");
  ASSERT_FALSE(empty_kind.ok());
  EXPECT_EQ(empty_kind.error().code, RequestErrorCode::kBadValue);

  auto empty_rest = global.Create("csv:");
  ASSERT_FALSE(empty_rest.ok());
  EXPECT_EQ(empty_rest.error().code, RequestErrorCode::kBadValue);
  EXPECT_NE(empty_rest.error().message.find("empty path"), std::string::npos);
}

TEST(SinkRegistryTest, PrivateRegistriesRegisterAndRefuseDuplicates) {
  SinkRegistry registry;
  EXPECT_FALSE(registry.Contains("null"));
  ASSERT_TRUE(registry.Register("null", [](const std::string&) {
    class NullSink : public ResultSink {
      void Consume(const RunRecord&) override {}
    };
    return std::make_unique<NullSink>();
  }));
  EXPECT_TRUE(registry.Contains("null"));
  // Second registration loses; the registry keeps the first factory.
  EXPECT_FALSE(registry.Register("null", [](const std::string&) {
    return std::unique_ptr<ResultSink>();
  }));
  auto sink = registry.Create("null:anything");
  ASSERT_TRUE(sink.ok()) << sink.error().Render();
  EXPECT_NE(*sink, nullptr);

  // The builtin set is injectable into a private registry too.
  RegisterBuiltinSinks(registry);
  EXPECT_TRUE(registry.Contains("jsonl"));
}

}  // namespace
}  // namespace eas
