// The run-metric schema: every scalar column a RunResult exports, named
// exactly once.
//
// Before the schema existed, each exporter (the summary CSV, the bench
// JSON emitters, eastool's stdout report) hand-rolled its own column list
// and re-implemented the "DVFS columns only when governed" special case.
// MetricScalars is the single source of truth instead: exporters ask it for
// the ordered scalar table of a result and render that, so a new metric (or
// a new feature-conditional column family) is added in one place and every
// exporter picks it up - with the presence rule (e.g. "only when the run was
// governed") written beside the columns it governs, not in each exporter.
//
// The column order is that of every renderer, pinned to the historical
// summary-CSV layout: changing it breaks the byte-identity guarantee the
// golden tests enforce.

#ifndef SRC_SIM_METRICS_H_
#define SRC_SIM_METRICS_H_

#include <string>
#include <vector>

#include "src/sim/experiment.h"

namespace eas {

// One scalar cell of the metric table: a column name and its value with the
// rendering precision the historical CSVs used.
struct MetricValue {
  std::string name;
  double value = 0.0;
  int precision = 4;      // fractional digits when !integral
  bool integral = false;  // render as a plain integer (e.g. migrations)
};

// Renders a value the way the summary CSV always has: "%lld" for integral
// metrics, "%.<precision>f" otherwise. Every output uses this, so a metric
// prints identically in CSV, JSONL and stdout tables.
std::string FormatMetricValue(const MetricValue& value);

// The ordered scalar table of `result`. A family that does not apply to
// the run (e.g. the DVFS columns of an ungoverned run) contributes no rows.
std::vector<MetricValue> MetricScalars(const RunResult& result);

}  // namespace eas

#endif  // SRC_SIM_METRICS_H_
