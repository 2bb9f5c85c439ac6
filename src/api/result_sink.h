// The offline output formats, rendered from finished RunRecords.
//
// A sweep runs to completion first (RunSession::Run returns every record in
// record order), and each format is then a plain function of the records:
//
//   SummaryCsv       the summary CSV of a whole sweep
//   TracePath        the file one record's per-CPU thermal trace CSV goes to
//   JsonlRecordLine  one JSON object per record (the bench report format,
//                    and the serve-mode record payload)
//   RecordPlot       one record's paper-style ASCII thermal-power plot
//
// All column names, values and presence rules come from MetricScalars
// (src/sim/metrics.h), so no format special-cases governed vs ungoverned
// runs. eastool writes the results to files or stdout.

#ifndef SRC_API_RESULT_SINK_H_
#define SRC_API_RESULT_SINK_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/api/run_record.h"

namespace eas {

// The summary CSV. For one record, exactly the historical `key,value` format
// (byte-identical to RunSummaryToCsv). For several, a wide table - header
// `run,name,seed,<metric...>` where the metric columns are the union across
// every record's schema in first-seen order (so a batch mixing governed and
// ungoverned runs keeps the DVFS columns), then one row per record; a
// metric a record lacks renders as an empty cell.
std::string SummaryCsv(const std::vector<RunRecord>& records);

// Where the thermal trace of record `index` goes: record 0 writes to
// `trace_path` itself (the historical name), record K>0 to `trace_path`.runK.
std::string TracePath(const std::string& trace_path, std::size_t index);

// The one JSON object a record renders as: session metadata (name, seed,
// run index), the originating request as a single `key = value; ...` string
// (parseable back into a RunRequest), the request's tag when set, every
// scalar metric of the run, plus the record-derived peak_thermal_w /
// steady_spread_w the bench reports always carried. This free function IS
// the record wire format: the experiment service streams exactly these
// bytes per record, which is what makes serve-mode output byte-comparable
// to an offline --jsonl file.
std::string JsonlRecordLine(const RunRecord& record);

// Escapes `text` as the contents of a JSON string literal (quotes not
// included).
std::string JsonEscape(const std::string& text);

// The record's thermal-power trace as the paper-style ASCII plot, after a
// title line naming the run and its seed. A run with an explicit power
// limit gets a dashed marker line at that limit.
std::string RecordPlot(const RunRecord& record);

}  // namespace eas

#endif  // SRC_API_RESULT_SINK_H_
