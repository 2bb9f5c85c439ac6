// RunSession: execute resolved RunRequests and return their RunRecords.
//
// The session flattens every request's specs into one sweep, fans it across
// the parallel ExperimentRunner, and returns one RunRecord per run in record
// order (request order, seeds ascending within a request) - bit-identical
// for any thread count. The output formats of src/api/result_sink.h render
// the finished records:
//
//   RunSession session(/*num_threads=*/0);
//   std::vector<RunRecord> records = session.Run({resolved});
//   WriteFile("summary.csv", SummaryCsv(records));

#ifndef SRC_API_RUN_SESSION_H_
#define SRC_API_RUN_SESSION_H_

#include <vector>

#include "src/api/run_record.h"
#include "src/api/run_request.h"

namespace eas {

class RunSession {
 public:
  // `num_threads` = 0 picks the hardware concurrency.
  explicit RunSession(std::size_t num_threads = 0);

  // Runs every spec of every request and returns the records in record
  // order. Failure semantics follow ExperimentRunner::RunAll: every spec
  // still runs, and the lowest-indexed failed spec's exception is rethrown.
  std::vector<RunRecord> Run(const std::vector<ResolvedRequest>& requests) const;
  std::vector<RunRecord> Run(const ResolvedRequest& request) const;

  const ExperimentRunner& runner() const { return runner_; }

 private:
  ExperimentRunner runner_;
};

}  // namespace eas

#endif  // SRC_API_RUN_SESSION_H_
