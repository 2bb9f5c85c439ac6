// ServiceClient: the client half of the experiment service protocol.
//
// Wraps one connection to a running `eastool serve` daemon and turns the
// wire verbs of wire.h into calls: submit a group of requests and stream
// their records back, query status, request shutdown. eastool's
// submit/status/shutdown verbs and the end-to-end tests are thin layers
// over this class, so they cannot drift from the protocol.
//
// Records arrive in completion order; each carries its submission id and
// record index, so callers that need offline-file-identical output (eastool
// submit --jsonl) reorder by index per submission before writing.

#ifndef SRC_SERVICE_SERVICE_CLIENT_H_
#define SRC_SERVICE_SERVICE_CLIENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/service/socket_io.h"
#include "src/service/wire.h"

namespace eas {

// One streamed record as the client sees it.
struct ClientRecord {
  std::uint64_t submission = 0;
  std::size_t index = 0;
  std::string jsonl;  // byte-exact offline --jsonl line
};

// What a submission group came back as.
struct SubmitOutcome {
  // Admitted submissions, in request order (id, record count).
  std::vector<std::pair<std::uint64_t, std::size_t>> submissions;
  std::size_t records = 0;  // records streamed in total
};

class ServiceClient {
 public:
  // Connects to the daemon at `socket_path`.
  static Expected<ServiceClient> Connect(const std::string& socket_path);

  // Submits `request_texts` (single-line `key = value; ...` each) as one
  // atomic group and blocks until every record has streamed back, invoking
  // `on_record` per record in arrival (completion) order. Returns the
  // outcome, or the server's rejection.
  Expected<SubmitOutcome> SubmitAndStream(const std::vector<std::string>& request_texts,
                                          const std::function<void(const ClientRecord&)>& on_record);

  // The `status` verb; the raw status JSON object.
  Expected<std::string> QueryStatus();

  // The `shutdown` verb; returns once the server acknowledged with `end`.
  Expected<bool> RequestShutdown();

 private:
  explicit ServiceClient(int fd) : channel_(std::make_unique<LineChannel>(fd)) {}

  std::unique_ptr<LineChannel> channel_;
};

}  // namespace eas

#endif  // SRC_SERVICE_SERVICE_CLIENT_H_
