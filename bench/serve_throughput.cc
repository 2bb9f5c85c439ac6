// Serve-throughput benchmark: what the resident service is for, measured.
// The same request population is driven three ways -
//
//   warm_service  ExperimentService in-process (the serve core: persistent
//                 workers + scenario cache, no transport)
//   warm_socket   the full daemon path: ExperimentServer on a Unix socket,
//                 records streamed back over the wire
//   fork_per_run  one `eastool --request` process per request, the offline
//                 workflow a sweep script would have used
//
// and reported as requests/s, plus the byte-identity cross-check: every
// path must produce the same JSONL bytes, or the speedup is meaningless and
// the bench fails.
//
//   $ bench_serve_throughput [--requests=24] [--duration=2000] [--threads=4]
//                            [--eastool=PATH] [--out=BENCH_serve.json]
//
// --eastool enables the fork_per_run leg (ctest and CI pass the built
// binary); without it only the warm legs run. --duration is simulated
// milliseconds per request; the JSON records the configuration so
// tools/bench_compare.py refuses mismatched comparisons.

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bench/bench_report.h"
#include "src/base/flags.h"
#include "src/service/experiment_server.h"
#include "src/service/service_client.h"

namespace {

using eas::bench::SecondsSince;

std::vector<std::string> MakeRequests(int count, long long duration_ms) {
  std::vector<std::string> texts;
  texts.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    char text[160];
    std::snprintf(text, sizeof(text),
                  "name = serve-bench; topology = 1:2:1; workload = hot:2; "
                  "duration-s = %g; seed = %d",
                  static_cast<double>(duration_ms) / 1000.0, 100 + i);
    texts.emplace_back(text);
  }
  return texts;
}

// One request -> one record here, so "lines" are indexed by request.
struct LegResult {
  double seconds = 0.0;
  std::vector<std::string> lines;
};

LegResult RunWarmService(const std::vector<std::string>& texts, std::size_t workers) {
  eas::ServiceOptions options;
  options.queue_depth = texts.size();
  options.workers = workers;
  eas::ExperimentService service(options);

  std::mutex mutex;
  std::map<std::uint64_t, std::string> by_submission;
  const auto start = std::chrono::steady_clock::now();
  for (const std::string& text : texts) {
    auto submitted = service.Submit(text, [&](const eas::StreamedRecord& record) {
      std::lock_guard<std::mutex> lock(mutex);
      by_submission[record.submission] = record.jsonl;
    });
    if (!submitted.ok()) {
      std::fprintf(stderr, "warm_service submit: %s\n", submitted.error().Render().c_str());
      std::exit(1);
    }
  }
  service.Drain();

  LegResult leg;
  leg.seconds = SecondsSince(start);
  for (const auto& [submission, line] : by_submission) {
    leg.lines.push_back(line);  // ids ascend in submit order
  }
  return leg;
}

LegResult RunWarmSocket(const std::vector<std::string>& texts, std::size_t workers) {
  const std::string socket_path =
      "/tmp/eas_bench_serve_" + std::to_string(::getpid()) + ".sock";
  eas::ServerOptions options;
  options.socket_path = socket_path;
  options.service.queue_depth = texts.size();
  options.service.workers = workers;
  auto server = eas::ExperimentServer::Start(options);
  if (!server.ok()) {
    std::fprintf(stderr, "warm_socket start: %s\n", server.error().Render().c_str());
    std::exit(1);
  }

  auto client = eas::ServiceClient::Connect(socket_path);
  if (!client.ok()) {
    std::fprintf(stderr, "warm_socket connect: %s\n", client.error().Render().c_str());
    std::exit(1);
  }
  std::map<std::uint64_t, std::string> by_submission;
  const auto start = std::chrono::steady_clock::now();
  auto outcome = client->SubmitAndStream(texts, [&](const eas::ClientRecord& record) {
    by_submission[record.submission] = record.jsonl;
  });
  const double seconds = SecondsSince(start);
  if (!outcome.ok()) {
    std::fprintf(stderr, "warm_socket submit: %s\n", outcome.error().Render().c_str());
    std::exit(1);
  }
  (*server)->Stop();

  LegResult leg;
  leg.seconds = seconds;
  for (const auto& [submission, line] : by_submission) {
    leg.lines.push_back(line);
  }
  return leg;
}

LegResult RunForkPerRun(const std::vector<std::string>& texts, const std::string& eastool) {
  const std::string stem = "/tmp/eas_bench_fork_" + std::to_string(::getpid());
  LegResult leg;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < texts.size(); ++i) {
    const std::string request_path = stem + "_" + std::to_string(i) + ".txt";
    const std::string jsonl_path = stem + "_" + std::to_string(i) + ".jsonl";
    {
      std::ofstream request_file(request_path);
      request_file << texts[i] << "\n";
    }
    const std::string command = "'" + eastool + "' --request '" + request_path +
                                "' --jsonl '" + jsonl_path + "' > /dev/null 2>&1";
    if (std::system(command.c_str()) != 0) {
      std::fprintf(stderr, "fork_per_run: eastool failed on request %zu\n", i);
      std::exit(1);
    }
    std::ifstream jsonl_file(jsonl_path);
    std::string line;
    std::getline(jsonl_file, line);
    leg.lines.push_back(line);
    std::remove(request_path.c_str());
    std::remove(jsonl_path.c_str());
  }
  leg.seconds = SecondsSince(start);
  return leg;
}

double RequestsPerSecond(std::size_t requests, double seconds) {
  return seconds > 0.0 ? static_cast<double>(requests) / seconds : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const eas::FlagParser flags(argc, argv);
  const std::vector<std::string> unknown =
      flags.UnknownFlags({"requests", "duration", "threads", "eastool", "out"});
  if (!unknown.empty()) {
    std::fprintf(stderr,
                 "unknown flag --%s (known: --requests --duration --threads --eastool --out)\n",
                 unknown.front().c_str());
    return 1;
  }
  const int requests = std::max(1, static_cast<int>(flags.GetInt("requests", 24)));
  const long long duration_ms = std::max(1LL, static_cast<long long>(flags.GetInt("duration", 2000)));
  const std::size_t workers =
      static_cast<std::size_t>(std::max(1LL, static_cast<long long>(flags.GetInt("threads", 4))));
  const std::string eastool = flags.GetString("eastool", "");
  const std::string out = flags.GetString("out", "BENCH_serve.json");

  const std::vector<std::string> texts = MakeRequests(requests, duration_ms);

  std::printf("== serve throughput: %d requests x %lld ms simulated ==\n\n", requests,
              duration_ms);

  const LegResult warm_service = RunWarmService(texts, workers);
  std::printf("  warm_service: %7.3f s  (%.1f requests/s)\n", warm_service.seconds,
              RequestsPerSecond(texts.size(), warm_service.seconds));

  const LegResult warm_socket = RunWarmSocket(texts, workers);
  std::printf("  warm_socket : %7.3f s  (%.1f requests/s)\n", warm_socket.seconds,
              RequestsPerSecond(texts.size(), warm_socket.seconds));

  eas::bench::BenchReport report("serve_throughput");
  report.Config("requests", requests);
  report.Config("duration_ms", duration_ms);
  report.Config("threads", workers);
  report.Config("build_type", eas::bench::BuildType());
  // warm_service is the reference the other legs' bytes are checked against.
  report.Noisy("warm_service", "requests_per_second",
               RequestsPerSecond(texts.size(), warm_service.seconds), "requests/s");
  report.Invariant("warm_service", "identical", true);
  report.Noisy("warm_socket", "requests_per_second",
               RequestsPerSecond(texts.size(), warm_socket.seconds), "requests/s");
  report.Invariant("warm_socket", "identical", warm_socket.lines == warm_service.lines);

  if (!eastool.empty()) {
    const LegResult fork = RunForkPerRun(texts, eastool);
    std::printf("  fork_per_run: %7.3f s  (%.1f requests/s)\n", fork.seconds,
                RequestsPerSecond(texts.size(), fork.seconds));
    report.Noisy("fork_per_run", "requests_per_second",
                 RequestsPerSecond(texts.size(), fork.seconds), "requests/s");
    report.Invariant("fork_per_run", "identical", fork.lines == warm_service.lines);
    const double speedup =
        fork.seconds > 0.0 && warm_service.seconds > 0.0 ? fork.seconds / warm_service.seconds
                                                         : 0.0;
    std::printf("  warm-service speedup over fork-per-run: %.1fx\n", speedup);
  } else {
    std::printf("  fork_per_run: skipped (pass --eastool=PATH to measure it)\n");
  }

  return report.Write(out);
}
