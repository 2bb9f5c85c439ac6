// CSV export of experiment traces, for plotting the paper's figures with
// external tools.

#ifndef SRC_SIM_CSV_EXPORT_H_
#define SRC_SIM_CSV_EXPORT_H_

#include <string>

#include "src/base/series.h"
#include "src/sim/experiment.h"

namespace eas {

// Renders a SeriesSet as CSV: first column the tick of the first series'
// samples (all series of a RunResult share the sampling grid), one column
// per series, header row with series names.
std::string SeriesSetToCsv(const SeriesSet& set);

// Renders the headline scalars of a run as "key,value" lines, in the
// metric-schema order (src/sim/metrics.h). SummaryCsv
// (src/api/result_sink.h) writes exactly this for a single-run sweep.
std::string RunSummaryToCsv(const RunResult& result);

// Writes `contents` to `path`; returns false on I/O failure.
bool WriteFile(const std::string& path, const std::string& contents);

}  // namespace eas

#endif  // SRC_SIM_CSV_EXPORT_H_
