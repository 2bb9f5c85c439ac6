#include "src/api/result_sink.h"

#include <algorithm>
#include <cstdio>

#include "src/base/ascii_plot.h"
#include "src/sim/csv_export.h"
#include "src/sim/metrics.h"

namespace eas {

std::string SummaryCsv(const std::vector<RunRecord>& records) {
  if (records.size() == 1) {
    return RunSummaryToCsv(records.front().result);
  }
  // Columns are the union of every record's schema, in first-seen order, so
  // no run's metrics are dropped (a batch can mix governed and ungoverned
  // runs, or different topologies).
  std::vector<std::vector<MetricValue>> rows;
  std::vector<std::string> columns;
  for (const RunRecord& record : records) {
    rows.push_back(MetricScalars(record.result));
    for (const MetricValue& metric : rows.back()) {
      if (std::find(columns.begin(), columns.end(), metric.name) == columns.end()) {
        columns.push_back(metric.name);
      }
    }
  }
  std::string csv = "run,name,seed";
  for (const std::string& column : columns) {
    csv += ',';
    csv += column;
  }
  csv += '\n';
  for (std::size_t r = 0; r < records.size(); ++r) {
    csv += std::to_string(records[r].index);
    csv += ',';
    csv += records[r].spec.name;
    csv += ',';
    csv += std::to_string(records[r].seed());
    for (const std::string& column : columns) {
      csv += ',';
      for (const MetricValue& metric : rows[r]) {
        if (metric.name == column) {
          csv += FormatMetricValue(metric);
          break;
        }
      }
    }
    csv += '\n';
  }
  return csv;
}

std::string TracePath(const std::string& trace_path, std::size_t index) {
  return index == 0 ? trace_path : trace_path + ".run" + std::to_string(index);
}

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

std::string RecordPlot(const RunRecord& record) {
  PlotOptions options;
  if (record.spec.config.explicit_max_power_physical.has_value()) {
    options.marker = *record.spec.config.explicit_max_power_physical;
    options.use_marker = true;
  }
  options.y_label = "W";
  return "-- " + record.spec.name + " (seed " + std::to_string(record.seed()) +
         ") per-CPU thermal power --\n" + RenderPlot(record.result.thermal_power, options);
}

}  // namespace eas
