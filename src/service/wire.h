// The experiment service's wire protocol.
//
// One Unix-domain stream socket, newline-framed UTF-8 lines, one message
// per line - greppable with socat, no binary framing to version. A client
// line longer than kMaxClientLineBytes (1 MiB, experiment_server.h) gets an
// `err` and the server closes the connection. Client -> server:
//
//   run <request>        submit one request; <request> is the single-line
//                        `key = value; ...` form (FormatRunRequestLine)
//   batch <n>            the next <n> `run` lines are one atomic group:
//                        either every request is admitted or none is
//   status               report service counters
//   done                 no more submissions; server answers `end` once
//                        every submission of this connection has completed
//   shutdown             drain and stop the whole service
//
// Server -> client:
//
//   sub <id> <runs>      a submission was admitted: its service-wide id and
//                        how many records it will stream (acks arrive in
//                        submission order, so clients map ids to requests)
//   rec <id> <index> <json>
//                        one completed run. <json> is byte-for-byte the
//                        line an offline --jsonl file holds for
//                        this record (JsonlRecordLine) - that identity is
//                        the protocol's determinism contract. Records
//                        arrive in completion order; <index> is the
//                        record's position within its submission, so
//                        clients reorder when they need file-identical
//                        output.
//   ok <id> <records>    submission <id> finished; all its records have
//                        been streamed
//   err <json>           a submission (or protocol message) was rejected;
//                        <json> is the serialized RequestError
//   status <json>        the counters `status` asked for
//   end                  reply to done/shutdown; the connection is finished
//
// This header carries the shared serialization helpers; framing lives in
// socket_io.h.

#ifndef SRC_SERVICE_WIRE_H_
#define SRC_SERVICE_WIRE_H_

#include <cstdint>
#include <string>

#include "src/api/request_error.h"

namespace eas {

// {"code": "bad-value", "key": "seed", "line": 2, "message": "...",
//  "render": "line 2: ..."} - code/key/line are what clients branch on,
// render is the exact string offline eastool would have printed.
std::string RequestErrorToJson(const RequestError& error);

// Parses the wire spelling back into a RequestError (clients surface
// server-side rejections with the same structure local parsing produces).
// Tolerates unknown fields; a line that is not an err payload, or whose
// "line" is not a ParseUint integer, comes back as a kProtocol error quoting
// it.
RequestError RequestErrorFromJson(const std::string& json);

// Counters the `status` verb reports; serialized as one flat JSON object.
struct ServiceStatusSnapshot {
  std::size_t queue_capacity = 0;
  std::size_t queued = 0;       // admitted jobs not yet picked up
  std::size_t in_flight = 0;    // jobs currently executing
  std::size_t completed_runs = 0;
  std::size_t completed_submissions = 0;
  std::size_t rejected_submissions = 0;
  std::size_t workers = 0;
  double uptime_s = 0.0;
  double runs_per_s = 0.0;      // completed_runs / uptime_s
  std::size_t scenario_cache_hits = 0;    // scenario + library hits combined
  std::size_t scenario_cache_misses = 0;  // scenario + library misses combined
  // The per-queue split behind the combined counters: scenario-spec builds
  // and program-library builds are cached (and therefore hit/miss) on
  // independent keys, so a cold library with a warm scenario set is visible.
  std::size_t cache_scenario_hits = 0;
  std::size_t cache_scenario_misses = 0;
  std::size_t cache_library_hits = 0;
  std::size_t cache_library_misses = 0;
};

std::string ServiceStatusToJson(const ServiceStatusSnapshot& status);

}  // namespace eas

#endif  // SRC_SERVICE_WIRE_H_
