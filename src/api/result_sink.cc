#include "src/api/result_sink.h"

#include <iostream>
#include <utility>

#include "src/sim/csv_export.h"
#include "src/sim/metrics.h"

namespace eas {

// --- CsvSink -----------------------------------------------------------------

CsvSink::CsvSink(std::string summary_path, std::string trace_path)
    : summary_path_(std::move(summary_path)), trace_path_(std::move(trace_path)) {}

void CsvSink::Begin(std::size_t total_records) { total_records_ = total_records; }

std::string CsvSink::TracePathFor(std::size_t index) const {
  if (trace_path_.empty()) {
    return "";
  }
  // Record 0 keeps the historical name; later runs get a .runK suffix.
  return index == 0 ? trace_path_ : trace_path_ + ".run" + std::to_string(index);
}

void CsvSink::Consume(const RunRecord& record) {
  if (!summary_path_.empty()) {
    if (total_records_ <= 1) {
      // Single run: the historical key,value summary, byte for byte (the
      // same shim every legacy caller still uses).
      summary_ += RunSummaryToCsv(record.result);
    } else {
      rows_.push_back(Row{record.index, record.spec.name, record.seed(),
                          MetricScalars(record.result)});
    }
  }
  if (!trace_path_.empty()) {
    const std::string path = TracePathFor(record.index);
    if (!WriteFile(path, SeriesSetToCsv(record.result.thermal_power)) && error_.empty()) {
      error_ = "failed to write trace CSV " + path;
    }
  }
}

void CsvSink::Finish() {
  if (finished_) {
    return;
  }
  finished_ = true;
  if (summary_path_.empty()) {
    return;
  }
  if (!rows_.empty()) {
    // Multi-run table: columns are the union of every run's schema, in
    // first-seen order, so no run's metrics are dropped (a batch can mix
    // governed and ungoverned runs, or different topologies).
    std::vector<std::string> columns;
    for (const Row& row : rows_) {
      for (const MetricValue& metric : row.metrics) {
        bool known = false;
        for (const std::string& column : columns) {
          if (column == metric.name) {
            known = true;
            break;
          }
        }
        if (!known) {
          columns.push_back(metric.name);
        }
      }
    }
    summary_ = "run,name,seed";
    for (const std::string& column : columns) {
      summary_ += ',';
      summary_ += column;
    }
    summary_ += '\n';
    for (const Row& row : rows_) {
      summary_ += std::to_string(row.index);
      summary_ += ',';
      summary_ += row.name;
      summary_ += ',';
      summary_ += std::to_string(row.seed);
      for (const std::string& column : columns) {
        summary_ += ',';
        for (const MetricValue& metric : row.metrics) {
          if (metric.name == column) {
            summary_ += FormatMetricValue(metric);
            break;
          }
        }
      }
      summary_ += '\n';
    }
  }
  if (!WriteFile(summary_path_, summary_) && error_.empty()) {
    error_ = "failed to write summary CSV " + summary_path_;
  }
}

// --- JsonlSink ---------------------------------------------------------------

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonlRecordLine(const RunRecord& record) {
  std::string line = "{\"name\": \"" + JsonEscape(record.spec.name) + "\"";
  line += ", \"seed\": " + std::to_string(record.seed());
  line += ", \"run\": " + std::to_string(record.index);
  line += ", \"request\": \"" + JsonEscape(FormatRunRequestLine(record.request)) + "\"";
  // The tag rides in the request string too, but concurrent serve-mode
  // clients demux on it, so it gets a first-class field. Absent when empty:
  // untagged output stays byte-identical to before the key existed.
  if (!record.request.tag.empty()) {
    line += ", \"tag\": \"" + JsonEscape(record.request.tag) + "\"";
  }
  for (const MetricValue& metric : MetricScalars(record.result)) {
    line += ", \"" + metric.name + "\": " + FormatMetricValue(metric);
  }
  // Record-derived extras the bench reports always carried. They need the
  // spec (the steady-state window is half the run), so they live here
  // rather than in the result-only MetricScalars schema - which also
  // keeps the summary-CSV byte-identity guarantee untouched.
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer), ", \"peak_thermal_w\": %.2f, \"steady_spread_w\": %.2f",
                record.result.thermal_power.MaxValue(),
                record.result.MaxThermalSpreadAfter(record.spec.options.duration_ticks / 2));
  line += buffer;
  line += "}";
  return line;
}

JsonlSink::JsonlSink(std::string path) : path_(std::move(path)) {}

void JsonlSink::EnsureOpen() {
  if (opened_) {
    return;
  }
  opened_ = true;
  if (path_ == "-") {
    out_ = &std::cout;
    return;
  }
  stream_.open(path_, std::ios::binary);
  if (!stream_) {
    error_ = "failed to open " + path_;
    return;
  }
  out_ = &stream_;
}

void JsonlSink::Begin(std::size_t /*total_records*/) { EnsureOpen(); }

void JsonlSink::AppendLine(const std::string& json_object) {
  EnsureOpen();
  if (!error_.empty()) {
    return;
  }
  *out_ << json_object << '\n';
}

void JsonlSink::Consume(const RunRecord& record) { AppendLine(JsonlRecordLine(record)); }

void JsonlSink::Finish() {
  if (finished_) {
    return;
  }
  finished_ = true;
  if (!opened_ || !error_.empty()) {
    return;
  }
  if (out_ == &std::cout) {
    out_->flush();
    return;
  }
  stream_.close();
  if (!stream_) {
    error_ = "failed to write " + path_;
  }
}

// --- AsciiPlotSink -----------------------------------------------------------

AsciiPlotSink::AsciiPlotSink(std::FILE* out, PlotOptions options)
    : out_(out), options_(std::move(options)) {}

AsciiPlotSink::AsciiPlotSink(const std::string& path, PlotOptions options)
    : out_(nullptr), options_(std::move(options)), path_(path) {
  if (path == "-") {
    out_ = stdout;
    return;
  }
  out_ = std::fopen(path.c_str(), "wb");
  if (out_ == nullptr) {
    error_ = "failed to open " + path;
  } else {
    owned_ = true;
  }
}

AsciiPlotSink::~AsciiPlotSink() { Finish(); }

void AsciiPlotSink::Consume(const RunRecord& record) {
  if (out_ == nullptr) {
    return;
  }
  PlotOptions options = options_;
  if (!options.use_marker && record.spec.config.explicit_max_power_physical.has_value()) {
    options.marker = *record.spec.config.explicit_max_power_physical;
    options.use_marker = true;
  }
  if (options.y_label.empty()) {
    // std::string(...) rather than a char* assignment: gcc 12's -Wrestrict
    // misfires on the in-place assign after the copy above.
    options.y_label = std::string("W");
  }
  std::fprintf(out_, "-- %s (seed %llu) per-CPU thermal power --\n", record.spec.name.c_str(),
               static_cast<unsigned long long>(record.seed()));
  std::fputs(RenderPlot(record.result.thermal_power, options).c_str(), out_);
}

void AsciiPlotSink::Finish() {
  if (finished_) {
    return;
  }
  finished_ = true;
  if (!owned_ || out_ == nullptr) {
    return;
  }
  if (std::fclose(out_) != 0 && error_.empty()) {
    error_ = "failed to write " + path_;
  }
  out_ = nullptr;
}

}  // namespace eas
