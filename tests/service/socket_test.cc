// The socket layer end to end: ExperimentServer accepting Unix-domain
// connections, ServiceClient speaking the wire protocol, and the same
// byte-identity contract as the in-process service tests - now across a
// real socket, with concurrent clients demuxed by submission id.

#include <gtest/gtest.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/api/result_sink.h"
#include "src/api/run_session.h"
#include "src/service/experiment_server.h"
#include "src/service/service_client.h"
#include "tests/service/status_field.h"

namespace eas {
namespace {

std::string SocketPath(const std::string& name) {
  return "/tmp/eas_" + name + "_" + std::to_string(::getpid()) + ".sock";
}

std::vector<std::string> OfflineLines(const std::string& text) {
  const auto request = ParseRunRequest(text);
  EXPECT_TRUE(request.ok()) << (request.ok() ? "" : request.error().Render());
  const auto resolved = ResolveRunRequest(*request);
  EXPECT_TRUE(resolved.ok()) << (resolved.ok() ? "" : resolved.error().Render());
  const RunSession session(1);
  std::vector<std::string> lines;
  for (const RunRecord& record : session.Run(*resolved)) {
    lines.push_back(JsonlRecordLine(record));
  }
  return lines;
}

ServerOptions QuickServer(const std::string& socket_path) {
  ServerOptions options;
  options.socket_path = socket_path;
  options.service.queue_depth = 32;
  options.service.workers = 2;
  return options;
}

// Streams one submission group through a fresh client and reorders by
// (submission, index) - the reconstruction eastool submit --jsonl does.
std::map<std::uint64_t, std::vector<std::string>> SubmitAndReorder(
    const std::string& socket_path, const std::vector<std::string>& texts) {
  std::map<std::uint64_t, std::vector<std::string>> lines;
  auto client = ServiceClient::Connect(socket_path);
  EXPECT_TRUE(client.ok()) << (client.ok() ? "" : client.error().Render());
  if (!client.ok()) {
    return lines;
  }
  std::map<std::uint64_t, std::map<std::size_t, std::string>> collected;
  const auto outcome = client->SubmitAndStream(texts, [&](const ClientRecord& record) {
    collected[record.submission][record.index] = record.jsonl;
  });
  EXPECT_TRUE(outcome.ok()) << (outcome.ok() ? "" : outcome.error().Render());
  if (outcome.ok()) {
    EXPECT_EQ(outcome->submissions.size(), texts.size());
  }
  for (const auto& [submission, by_index] : collected) {
    for (const auto& [index, jsonl] : by_index) {
      lines[submission].push_back(jsonl);
    }
  }
  return lines;
}

TEST(ExperimentServerTest, StreamsOfflineIdenticalBytesOverTheSocket) {
  const std::string socket_path = SocketPath("e2e");
  auto server = ExperimentServer::Start(QuickServer(socket_path));
  ASSERT_TRUE(server.ok()) << server.error().Render();

  const std::vector<std::string> texts = {
      "name = a; topology = 1:2:1; workload = hot:2; duration-s = 2; seed = 5; runs = 2",
      "name = b; topology = 1:2:1; workload = hot:2; duration-s = 2; seed = 9",
  };
  const auto by_submission = SubmitAndReorder(socket_path, texts);
  ASSERT_EQ(by_submission.size(), 2u);
  // Submission ids are assigned in request order, so the id-ordered map
  // walks the texts in order.
  auto it = by_submission.begin();
  EXPECT_EQ(it->second, OfflineLines(texts[0]));
  ++it;
  EXPECT_EQ(it->second, OfflineLines(texts[1]));
}

TEST(ExperimentServerTest, ConcurrentClientsAreDemuxedBySubmission) {
  const std::string socket_path = SocketPath("demux");
  auto server = ExperimentServer::Start(QuickServer(socket_path));
  ASSERT_TRUE(server.ok()) << server.error().Render();

  constexpr int kClients = 2;
  constexpr int kPerClient = 2;
  std::mutex mutex;
  std::map<std::string, std::vector<std::string>> got;  // text -> reordered lines
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int m = 0; m < kPerClient; ++m) {
        const std::string text = "topology = 1:2:1; workload = hot:2; duration-s = 2; seed = " +
                                 std::to_string(40 + c * 10 + m) + "; runs = 2";
        auto lines = SubmitAndReorder(socket_path, {text});
        ASSERT_EQ(lines.size(), 1u);
        std::lock_guard<std::mutex> lock(mutex);
        got[text] = lines.begin()->second;
      }
    });
  }
  for (std::thread& client : clients) {
    client.join();
  }
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kClients * kPerClient));
  for (const auto& [text, lines] : got) {
    EXPECT_EQ(lines, OfflineLines(text)) << text;
  }
}

TEST(ExperimentServerTest, RejectionsTravelAsStructuredErrors) {
  const std::string socket_path = SocketPath("reject");
  auto server = ExperimentServer::Start(QuickServer(socket_path));
  ASSERT_TRUE(server.ok()) << server.error().Render();

  auto client = ServiceClient::Connect(socket_path);
  ASSERT_TRUE(client.ok()) << client.error().Render();
  const auto outcome = client->SubmitAndStream({"polcy = energy_aware"}, nullptr);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code, RequestErrorCode::kUnknownKey);
  EXPECT_EQ(outcome.error().key, "polcy");
  EXPECT_EQ(outcome.error().line, 1u);
  EXPECT_NE(outcome.error().Render().find("unknown key \"polcy\""), std::string::npos);

  // The connection survives a rejection; a good submission still works.
  const auto retry = client->SubmitAndStream(
      {"topology = 1:2:1; workload = hot:2; duration-s = 2"}, nullptr);
  ASSERT_TRUE(retry.ok()) << retry.error().Render();
  EXPECT_EQ(retry->records, 1u);
}

TEST(ExperimentServerTest, StatusVerbReportsCounters) {
  const std::string socket_path = SocketPath("status");
  auto server = ExperimentServer::Start(QuickServer(socket_path));
  ASSERT_TRUE(server.ok()) << server.error().Render();

  auto client = ServiceClient::Connect(socket_path);
  ASSERT_TRUE(client.ok()) << client.error().Render();
  const auto done = client->SubmitAndStream(
      {"topology = 1:2:1; workload = hot:2; duration-s = 2; runs = 2"}, nullptr);
  ASSERT_TRUE(done.ok()) << done.error().Render();

  const auto status = client->QueryStatus();
  ASSERT_TRUE(status.ok()) << status.error().Render();
  EXPECT_EQ(StatusField(*status, "queue_capacity", -1), 32.0);
  EXPECT_EQ(StatusField(*status, "completed_runs", -1), 2.0);
  EXPECT_EQ(StatusField(*status, "completed_submissions", -1), 1.0);
  // `ok` is written from inside the worker's run loop, so the worker may
  // not have decremented in_flight yet when the client queries; the counter
  // is bounded by the pool size, not exactly zero.
  EXPECT_GE(StatusField(*status, "in_flight", -1), 0.0);
  EXPECT_LE(StatusField(*status, "in_flight", -1), 2.0);
  EXPECT_EQ(StatusField(*status, "queued", -1), 0.0);
  EXPECT_GE(StatusField(*status, "uptime_s", -1), 0.0);
}

TEST(ExperimentServerTest, UnknownVerbsGetProtocolErrorsNotDisconnects) {
  const std::string socket_path = SocketPath("verbs");
  auto server = ExperimentServer::Start(QuickServer(socket_path));
  ASSERT_TRUE(server.ok()) << server.error().Render();

  auto fd = ConnectUnix(socket_path);
  ASSERT_TRUE(fd.ok()) << fd.error().Render();
  LineChannel channel(*fd);
  ASSERT_TRUE(channel.WriteLine("frobnicate"));
  std::string line;
  ASSERT_TRUE(channel.ReadLine(&line));
  ASSERT_EQ(line.rfind("err ", 0), 0u) << line;
  const RequestError error = RequestErrorFromJson(line.substr(4));
  EXPECT_EQ(error.code, RequestErrorCode::kProtocol);
  EXPECT_NE(error.message.find("frobnicate"), std::string::npos);

  ASSERT_TRUE(channel.WriteLine("done"));
  ASSERT_TRUE(channel.ReadLine(&line));
  EXPECT_EQ(line, "end");
}

TEST(ExperimentServerTest, BatchCountsAreDigitsOnly) {
  const std::string socket_path = SocketPath("batch_count");
  auto server = ExperimentServer::Start(QuickServer(socket_path));
  ASSERT_TRUE(server.ok()) << server.error().Render();

  for (const char* count : {"+1", " 1", "1x", "0", "-1", "18446744073709551616"}) {
    auto fd = ConnectUnix(socket_path);
    ASSERT_TRUE(fd.ok()) << fd.error().Render();
    LineChannel channel(*fd);
    ASSERT_TRUE(channel.WriteLine(std::string("batch ") + count));
    // End the stream here: a count the server took would wait for run
    // lines that never come, and report a short batch instead.
    ::shutdown(channel.fd(), SHUT_WR);
    std::string line;
    ASSERT_TRUE(channel.ReadLine(&line)) << count;
    ASSERT_EQ(line.rfind("err ", 0), 0u) << count << ": " << line;
    const RequestError error = RequestErrorFromJson(line.substr(4));
    EXPECT_EQ(error.code, RequestErrorCode::kProtocol) << count;
    EXPECT_EQ(error.message, "bad batch count in \"batch " + std::string(count) + "\"");
  }
  auto client = ServiceClient::Connect(socket_path);
  ASSERT_TRUE(client.ok()) << client.error().Render();
  EXPECT_TRUE(client->QueryStatus().ok());
}

TEST(LineChannelTest, RefusesALineLongerThanItsBound) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  LineChannel writer(fds[0]);
  LineChannel reader(fds[1], /*max_line_bytes=*/8);
  ASSERT_TRUE(writer.WriteLine("12345678"));   // at the bound
  ASSERT_TRUE(writer.WriteLine("123456789"));  // one byte past it
  ASSERT_TRUE(writer.WriteLine("after"));
  std::string line;
  ASSERT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line, "12345678");
  EXPECT_FALSE(reader.line_too_long());
  EXPECT_FALSE(reader.ReadLine(&line));
  EXPECT_TRUE(reader.line_too_long());
  EXPECT_FALSE(reader.ReadLine(&line));  // the channel reads nothing more
}

TEST(ExperimentServerTest, OverlongLineGetsAnErrorAndTheConnectionCloses) {
  const std::string socket_path = SocketPath("overlong");
  auto server = ExperimentServer::Start(QuickServer(socket_path));
  ASSERT_TRUE(server.ok()) << server.error().Render();

  auto fd = ConnectUnix(socket_path);
  ASSERT_TRUE(fd.ok()) << fd.error().Render();
  LineChannel channel(*fd);
  // 2 MiB without a newline. The server stops reading past its bound and
  // hangs up, so the send may end early with EPIPE; then the stream ends,
  // so a server without the bound answers instead of waiting forever.
  const std::string flood(std::size_t{2} << 20, 'x');
  std::size_t sent = 0;
  while (sent < flood.size()) {
    const ssize_t wrote =
        ::send(channel.fd(), flood.data() + sent, flood.size() - sent, MSG_NOSIGNAL);
    if (wrote <= 0) {
      break;
    }
    sent += static_cast<std::size_t>(wrote);
  }
  EXPECT_GT(sent, kMaxClientLineBytes);
  ::shutdown(channel.fd(), SHUT_WR);

  std::string line;
  ASSERT_TRUE(channel.ReadLine(&line));
  ASSERT_EQ(line.rfind("err ", 0), 0u) << line.substr(0, 200);
  const RequestError error = RequestErrorFromJson(line.substr(4));
  EXPECT_EQ(error.code, RequestErrorCode::kProtocol);
  // Compared through a prefix, so a failure does not print megabytes.
  EXPECT_EQ(error.message.substr(0, 100),
            "line longer than 1048576 bytes; closing the connection");
  EXPECT_FALSE(channel.ReadLine(&line)) << "the connection stayed open";

  // The daemon serves the next client as before.
  auto client = ServiceClient::Connect(socket_path);
  ASSERT_TRUE(client.ok()) << client.error().Render();
  EXPECT_TRUE(client->QueryStatus().ok());
}

TEST(ExperimentServerTest, ShutdownVerbDrainsAndStopsTheServer) {
  const std::string socket_path = SocketPath("shutdown");
  auto server = ExperimentServer::Start(QuickServer(socket_path));
  ASSERT_TRUE(server.ok()) << server.error().Render();

  std::size_t streamed = 0;
  {
    auto client = ServiceClient::Connect(socket_path);
    ASSERT_TRUE(client.ok()) << client.error().Render();
    const auto outcome = client->SubmitAndStream(
        {"topology = 1:2:1; workload = hot:2; duration-s = 2; runs = 3"},
        [&](const ClientRecord&) { ++streamed; });
    ASSERT_TRUE(outcome.ok()) << outcome.error().Render();
    const auto ack = client->RequestShutdown();
    ASSERT_TRUE(ack.ok()) << ack.error().Render();
  }
  EXPECT_EQ(streamed, 3u);
  (*server)->Wait();  // returns: the shutdown verb stopped the accept loop
  server->reset();    // tears down the listening socket and unlinks the path

  // The daemon is gone: connecting again fails.
  auto late = ServiceClient::Connect(socket_path);
  EXPECT_FALSE(late.ok());
}

// The virtual memory the process maps, in bytes (Linux /proc).
long long VmSizeBytes() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmSize:") {
      long long kib = 0;
      status >> kib;
      return kib * 1024;
    }
    std::getline(status, key);
  }
  return 0;
}

// The stack a new thread of this process gets, in bytes.
long long ThreadStackBytes() {
  std::size_t bytes = 0;
  std::thread([&bytes] {
    pthread_attr_t attr;
    pthread_getattr_np(pthread_self(), &attr);
    pthread_attr_getstacksize(&attr, &bytes);
    pthread_attr_destroy(&attr);
  }).join();
  return static_cast<long long>(bytes);
}

TEST(ExperimentServerTest, FinishedConnectionsLeaveNoHandlerThreadBehind) {
  const std::string socket_path = SocketPath("reap");
  auto server = ExperimentServer::Start(QuickServer(socket_path));
  ASSERT_TRUE(server.ok()) << server.error().Render();
  // One `eastool status`: connect, ask, hang up.
  const auto status_cycle = [&socket_path] {
    auto client = ServiceClient::Connect(socket_path);
    ASSERT_TRUE(client.ok()) << client.error().Render();
    EXPECT_TRUE(client->QueryStatus().ok());
  };
  for (int i = 0; i < 4; ++i) {
    status_cycle();  // the first handlers map the stacks later ones reuse
  }
  const long long before = VmSizeBytes();
  constexpr int kCycles = 64;
  for (int i = 0; i < kCycles; ++i) {
    status_cycle();
  }
  // A handler thread kept after its client left holds its stack: 64 of them
  // would map 64 stacks. Joined handlers hand theirs back for reuse.
  const long long grown = VmSizeBytes() - before;
  EXPECT_LT(grown, 8 * ThreadStackBytes()) << "VmSize grew by " << grown << " bytes over "
                                           << kCycles << " connections";
}

TEST(ExperimentServerTest, ConnectToMissingSocketDiagnoses) {
  const auto client = ServiceClient::Connect(SocketPath("nobody-home"));
  ASSERT_FALSE(client.ok());
  EXPECT_EQ(client.error().code, RequestErrorCode::kIo);
  EXPECT_NE(client.error().message.find("is the service running?"), std::string::npos);
}

}  // namespace
}  // namespace eas
