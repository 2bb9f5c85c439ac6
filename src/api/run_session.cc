#include "src/api/run_session.h"

#include <utility>

namespace eas {

RunSession::RunSession(std::size_t num_threads) : runner_(num_threads) {}

std::vector<RunRecord> RunSession::Run(const std::vector<ResolvedRequest>& requests) const {
  // Flatten every request's specs into one sweep, remembering which request
  // each flat index belongs to.
  std::vector<ExperimentSpec> specs;
  std::vector<std::size_t> request_of;
  for (std::size_t r = 0; r < requests.size(); ++r) {
    for (const ExperimentSpec& spec : requests[r].specs) {
      specs.push_back(spec);
      request_of.push_back(r);
    }
  }

  std::vector<RunResult> results = runner_.RunAll(specs);
  std::vector<RunRecord> records(specs.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    records[i].request = requests[request_of[i]].request;
    // The sweep is done with its specs, so each one (and its possibly large
    // workload) moves into its record instead of being copied again.
    records[i].spec = std::move(specs[i]);
    records[i].index = i;
    records[i].result = std::move(results[i]);
  }
  return records;
}

std::vector<RunRecord> RunSession::Run(const ResolvedRequest& request) const {
  return Run(std::vector<ResolvedRequest>{request});
}

}  // namespace eas
