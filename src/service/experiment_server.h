// ExperimentServer: the Unix-socket daemon around ExperimentService.
//
// `eastool serve` constructs one of these; it owns the listening socket,
// accepts connections on a dedicated thread, and speaks the line protocol
// of wire.h per connection (one handler thread each, joined by the accept
// loop once its client has gone; record streaming happens on service worker
// threads, serialized per connection by a write mutex). The server adds no
// execution semantics of its own - every submit/status/shutdown verb maps
// 1:1 onto the transport-free ExperimentService call the in-process tests
// exercise, so socket clients and direct callers observe identical
// behavior, including byte-identical record payloads.
//
// Shutdown: a client `shutdown` verb (or Stop()) ends the accept loop;
// Wait() then drains every admitted job through ExperimentService::Shutdown
// before returning - accepted work always completes.

#ifndef SRC_SERVICE_EXPERIMENT_SERVER_H_
#define SRC_SERVICE_EXPERIMENT_SERVER_H_

#include <atomic>
#include <cstddef>
#include <list>
#include <memory>
#include <string>
#include <thread>

#include "src/service/experiment_service.h"
#include "src/service/socket_io.h"

namespace eas {

// The longest line the daemon reads from a client (1 MiB; a `run` line is a
// few hundred bytes). A longer line gets a `protocol` err and the daemon
// closes that connection, so no client can grow a handler's buffer without
// bound. Only the daemon reads with this bound: clients read whole `rec`
// lines of any length.
inline constexpr std::size_t kMaxClientLineBytes = std::size_t{1} << 20;

struct ServerOptions {
  std::string socket_path;
  ServiceOptions service;
};

class ExperimentServer {
 public:
  // Binds the socket and starts the accept loop; the bound server, or the
  // bind failure.
  static Expected<std::unique_ptr<ExperimentServer>> Start(ServerOptions options);

  ~ExperimentServer();

  ExperimentServer(const ExperimentServer&) = delete;
  ExperimentServer& operator=(const ExperimentServer&) = delete;

  // Blocks until a shutdown request (client verb or Stop), then drains the
  // service and joins every connection.
  void Wait();

  // Programmatic shutdown trigger (signal handlers, tests).
  void Stop() { stop_.store(true); }

  const std::string& socket_path() const { return socket_->path(); }
  ExperimentService& service() { return service_; }

 private:
  explicit ExperimentServer(ServerOptions options, UnixServerSocket socket);

  // One connection's handler thread and the flag it raises on return.
  struct Handler {
    std::thread thread;
    std::atomic<bool> finished{false};
  };

  void AcceptLoop();
  void HandleConnection(int fd);
  // Joins and drops every handler whose connection has ended.
  void JoinFinishedHandlers();

  ExperimentService service_;
  std::unique_ptr<UnixServerSocket> socket_;
  std::atomic<bool> stop_{false};
  // A list, so a handler's own entry stays put while it runs.
  std::mutex handlers_mutex_;
  std::list<Handler> handlers_;
  std::thread accept_thread_;
};

}  // namespace eas

#endif  // SRC_SERVICE_EXPERIMENT_SERVER_H_
