// RunRecord: one completed run, self-describing.
//
// A RunResult alone cannot be exported faithfully - you also need to know
// what produced it (which spec, which seed, how long) and which request it
// belongs to (to reproduce it, and to group a sweep's runs). A RunRecord
// bundles all of that, so every output format (src/api/result_sink.h) can
// render a record without side-channel context, and a record written to
// disk (JsonlRecordLine embeds the formatted request) is enough to replay
// the run that produced it.

#ifndef SRC_API_RUN_RECORD_H_
#define SRC_API_RUN_RECORD_H_

#include <cstddef>
#include <cstdint>

#include "src/api/run_request.h"

namespace eas {

struct RunRecord {
  // The request this run came from (as resolved; reproduces the run).
  RunRequest request;

  // The spec that ran: name ("cli/seed42"), config (topology, seed,
  // governor...), options (duration, sampling) and workload.
  ExperimentSpec spec;

  // Position within the session, 0-based across every record it returns;
  // run K of a sweep writes its trace to FILE.runK.
  std::size_t index = 0;

  RunResult result;

  std::uint64_t seed() const { return spec.config.seed; }
};

}  // namespace eas

#endif  // SRC_API_RUN_RECORD_H_
