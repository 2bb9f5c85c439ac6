#include "src/sim/csv_export.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "src/sim/metrics.h"

namespace eas {

std::string SeriesSetToCsv(const SeriesSet& set) {
  std::string out = "tick";
  for (const auto& series : set.all()) {
    out += ",";
    out += series.name();
  }
  out += "\n";
  // Rows run to the *longest* series - bounding by the first would silently
  // drop the tail of any longer series. Shorter series emit empty cells; the
  // tick column comes from the first series that still has a sample at the
  // row index (the series of a set share one sampling grid).
  std::size_t rows = 0;
  for (const auto& series : set.all()) {
    rows = std::max(rows, series.size());
  }
  char buffer[64];
  for (std::size_t i = 0; i < rows; ++i) {
    for (const auto& series : set.all()) {
      if (i < series.size()) {
        std::snprintf(buffer, sizeof(buffer), "%lld", static_cast<long long>(series.tick_at(i)));
        out += buffer;
        break;
      }
    }
    for (const auto& series : set.all()) {
      if (i < series.size()) {
        std::snprintf(buffer, sizeof(buffer), ",%.4f", series.value_at(i));
      } else {
        std::snprintf(buffer, sizeof(buffer), ",");
      }
      out += buffer;
    }
    out += "\n";
  }
  return out;
}

std::string RunSummaryToCsv(const RunResult& result) {
  // Rendered from the metric schema: MetricScalars owns the column list, the
  // order and the per-run presence rules (DVFS columns only appear when the
  // run was governed), so this stays byte-identical to the historical
  // hand-rolled format without repeating it.
  std::string out;
  for (const MetricValue& metric : MetricScalars(result)) {
    out += metric.name;
    out += ',';
    out += FormatMetricValue(metric);
    out += '\n';
  }
  return out;
}

bool WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream stream(path, std::ios::binary);
  if (!stream) {
    return false;
  }
  stream << contents;
  // A write can fail only when the buffer is flushed (a full device), so
  // the state that counts is the one after the close.
  stream.close();
  return static_cast<bool>(stream);
}

}  // namespace eas
