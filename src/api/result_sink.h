// ResultSink: where completed runs go.
//
// The old surface returned a std::vector<RunResult> and left every caller
// to hand-roll its own CSV/JSON writing; a sink consumes RunRecords as the
// RunSession streams them (in record order, as runs complete) and renders
// one output format:
//
//   CsvSink       the summary/trace CSVs eastool always wrote - byte-
//                 identical for a single run, one row / one trace file per
//                 run for sweeps
//   JsonlSink     one JSON object per record (the bench report format);
//                 path "-" streams to stdout
//   AsciiPlotSink a thermal-power plot per record, to a borrowed stdio
//                 stream or an owned file path
//
// Sinks are constructed directly or by name through the SinkRegistry
// ("csv:out.csv", "jsonl:-", ... - src/api/sink_registry.h), the same
// string-keyed pattern the policy/governor/scenario registries use.
//
// All column names, values and presence rules come from MetricScalars
// (src/sim/metrics.h), so sinks never special-case governed vs ungoverned
// runs. Lifecycle: Begin(total) before the first record, Consume per
// record, Finish once by the owner when done (RunSession calls Begin and
// Consume; callers call Finish, which lets them append trailer content
// first). File sinks report I/O failure through ok()/error().

#ifndef SRC_API_RESULT_SINK_H_
#define SRC_API_RESULT_SINK_H_

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/api/run_record.h"
#include "src/base/ascii_plot.h"
#include "src/sim/metrics.h"

namespace eas {

class ResultSink {
 public:
  virtual ~ResultSink() = default;

  // Called once before the first record with the number of records the
  // session will emit (sum of every request's runs).
  virtual void Begin(std::size_t /*total_records*/) {}

  // Called once per record, in record order.
  virtual void Consume(const RunRecord& record) = 0;

  // Called once by the sink's owner after the last record; flushes and
  // closes. Idempotent.
  virtual void Finish() {}

  // Writes one raw line around the records (bench sweeps put their run
  // configuration first and wall-clock totals last). Sinks whose format has
  // no place for free-form lines ignore it, so callers can hold any sink by
  // base pointer and still annotate.
  virtual void AppendLine(const std::string& /*line*/) {}

  // False after an I/O failure; error() names the path and the offense.
  virtual bool ok() const { return true; }
  virtual std::string error() const { return ""; }
};

// The summary/trace CSV writer.
//
// Summary (`summary_path`): for a single-record session, exactly the
// historical `key,value` format (byte-identical to RunSummaryToCsv). For a
// multi-record session, a wide table - header `run,name,seed,<metric...>`
// where the metric columns are the union across every run's schema in
// first-seen order (so a batch mixing governed and ungoverned runs keeps
// the DVFS columns), then one row per run; a metric a run lacks renders as
// an empty cell. The table is assembled in Finish - scalar rows are tiny,
// so buffering them costs nothing and no run's columns can be lost.
//
// Trace (`trace_path`): the per-CPU thermal power trace of every run.
// Record 0 writes to `trace_path` itself (the historical name); record K>0
// writes to `trace_path`.runK.
class CsvSink : public ResultSink {
 public:
  CsvSink(std::string summary_path, std::string trace_path);

  void Begin(std::size_t total_records) override;
  void Consume(const RunRecord& record) override;
  void Finish() override;
  bool ok() const override { return error_.empty(); }
  std::string error() const override { return error_; }

  // The trace file a record index writes to (empty if traces are off).
  std::string TracePathFor(std::size_t index) const;

 private:
  // One buffered summary row of the multi-run table.
  struct Row {
    std::size_t index = 0;
    std::string name;
    std::uint64_t seed = 0;
    std::vector<MetricValue> metrics;
  };

  std::string summary_path_;
  std::string trace_path_;
  std::size_t total_records_ = 1;
  std::string summary_;     // single-run summary, accumulated in Consume
  std::vector<Row> rows_;   // multi-run rows, rendered in Finish
  bool finished_ = false;
  std::string error_;
};

// The one JSON object a record renders as: session metadata (name, seed,
// run index), the originating request as a single `key = value; ...` string
// (parseable back into a RunRequest), the request's tag when set, every
// scalar metric of the run, plus the record-derived peak_thermal_w /
// steady_spread_w the bench reports always carried. This free function IS
// the record wire format: the experiment service streams exactly these
// bytes per record, which is what makes serve-mode output byte-comparable
// to an offline JsonlSink file.
std::string JsonlRecordLine(const RunRecord& record);

// Streams JsonlRecordLine per record to `path`, or to stdout for path "-".
class JsonlSink : public ResultSink {
 public:
  explicit JsonlSink(std::string path);

  void Begin(std::size_t total_records) override;
  void Consume(const RunRecord& record) override;
  void Finish() override;
  bool ok() const override { return error_.empty(); }
  std::string error() const override { return error_; }

  // Writes one raw line (a complete JSON object) to the stream. Opens the
  // stream if Begin has not run yet.
  void AppendLine(const std::string& json_object) override;

 private:
  void EnsureOpen();

  std::string path_;
  std::ofstream stream_;
  std::ostream* out_ = nullptr;  // &stream_, or std::cout for path "-"
  bool opened_ = false;
  bool finished_ = false;
  std::string error_;
};

// Escapes `text` as the contents of a JSON string literal (quotes not
// included).
std::string JsonEscape(const std::string& text);

// Renders each record's thermal-power trace as the paper-style ASCII plot,
// with a per-run title line. The stream ctor borrows `out`; the path ctor
// opens and owns the file ("-" borrows stdout) and reports I/O failure
// through ok()/error().
class AsciiPlotSink : public ResultSink {
 public:
  explicit AsciiPlotSink(std::FILE* out, PlotOptions options = {});
  explicit AsciiPlotSink(const std::string& path, PlotOptions options = {});
  ~AsciiPlotSink() override;

  void Consume(const RunRecord& record) override;
  void Finish() override;
  bool ok() const override { return error_.empty(); }
  std::string error() const override { return error_; }

 private:
  std::FILE* out_;
  bool owned_ = false;
  bool finished_ = false;
  PlotOptions options_;
  std::string path_;
  std::string error_;
};

}  // namespace eas

#endif  // SRC_API_RESULT_SINK_H_
