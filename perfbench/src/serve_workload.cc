// serve-mix: an in-process ExperimentServer on a Unix socket with two
// workers, driven in a closed loop by two ServiceClient connections. Each
// client submits its next single request only after the previous record has
// arrived. Every record must be byte-equal to the same request run offline.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "src/api/result_sink.h"
#include "src/api/run_session.h"
#include "src/service/experiment_server.h"
#include "src/service/service_client.h"
#include "src/sim/scenario_cache.h"
#include "src/workloads.h"

namespace perfbench {
namespace {

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kClients = 2;
constexpr std::size_t kQueueDepth = 8;
// The measured loop runs in kSegments parts, each after kSetupsPerSegment
// set-up samples, so that the set-up samples spread over the whole run.
constexpr int kSegments = 5;
constexpr int kSetupsPerSegment = 3;
constexpr double kInf = std::numeric_limits<double>::infinity();

// The request shapes, 4-5 simulated seconds each, so parse, resolve, the
// queue, the wire and rendering weigh as much as the engine. chaos-soak
// needs 5 s for its first hotplug event (tick 4000) to fire.
struct MixShape {
  const char* text;
  double seconds;
};
constexpr MixShape kShapes[] = {
    {"scenario = paper-mixed", 4.0},
    {"scenario = dvfs-vs-throttle", 4.0},
    {"scenario = chaos-soak", 5.0},
    {"topology = 1:2:1; workload = hot:2", 5.0},
};
// One pass of the cycle. paper-mixed, the middle-cost shape, comes twice,
// so the median latency falls inside its mode instead of on the edge
// between two shapes' modes, where a small shift would move it a lot.
constexpr int kCycle[] = {0, 1, 0, 2, 3};
constexpr int kPasses = 4;  // each pass with its own seeds
constexpr std::size_t kMixSize = std::size(kCycle) * kPasses;

struct MixEntry {
  std::string text;
  std::string reference;  // the offline JsonlRecordLine
  double offline_ms = 0.0;
  std::int64_t ticks = 0;
};

// Runs every mix request offline through the public API (parse, resolve,
// RunSession, JsonlRecordLine) once: the byte reference for the served
// records, and the offline run time.
std::vector<MixEntry> BuildReferences(const std::vector<std::string>& texts, Report& report) {
  std::vector<MixEntry> mix;
  const eas::RunSession session(1);
  for (const std::string& text : texts) {
    MixEntry entry;
    entry.text = text;
    const Clock::time_point start = Clock::now();
    auto parsed = eas::ParseRunRequest(text);
    if (!parsed.ok()) {
      report.Mismatch("serve-mix request rejected: " + parsed.error().Render());
      return mix;
    }
    auto resolved = eas::ResolveRunRequest(*parsed);
    if (!resolved.ok()) {
      report.Mismatch("serve-mix request rejected: " + resolved.error().Render());
      return mix;
    }
    entry.ticks = resolved->specs.front().options.duration_ticks;
    const std::vector<eas::RunRecord> records = session.Run(*resolved);
    entry.reference = eas::JsonlRecordLine(records.front());
    entry.offline_ms = SecondsSince(start) * 1e3;
    mix.push_back(std::move(entry));
  }
  return mix;
}

std::string SocketPath() {
  std::filesystem::create_directories(kOutDir);
  // Relative, so the path stays under the socket-address length limit
  // however deep the checkout sits.
  return std::string(kOutDir) + "/serve-" + std::to_string(::getpid()) + ".sock";
}

std::unique_ptr<eas::ExperimentServer> StartServer(const std::string& socket_path) {
  eas::ServerOptions options;
  options.socket_path = socket_path;
  options.service.workers = kWorkers;
  options.service.queue_depth = kQueueDepth;
  auto server = eas::ExperimentServer::Start(options);
  if (!server.ok()) {
    throw std::runtime_error("server start: " + server.error().Render());
  }
  return std::move(*server);
}

// Server start to the first accepted request (`sub` ack), then drains that
// request and stops the server. Returns seconds; checks the record.
double MeasureSetup(const std::string& socket_path, const MixEntry& first, Report& report) {
  const Clock::time_point start = Clock::now();
  std::unique_ptr<eas::ExperimentServer> server = StartServer(socket_path);
  auto fd = eas::ConnectUnix(socket_path);
  if (!fd.ok()) {
    throw std::runtime_error("connect: " + fd.error().Render());
  }
  eas::LineChannel channel(*fd);
  if (!channel.WriteLine("run " + first.text)) {
    throw std::runtime_error("connection lost while submitting");
  }
  double setup_s = -1.0;
  bool ok = false;
  std::string line;
  while (channel.ReadLine(&line)) {
    if (line.rfind("sub ", 0) == 0) {
      setup_s = SecondsSince(start);
    } else if (line.rfind("rec ", 0) == 0) {
      // rec <id> <index> <json>
      const std::size_t json = line.find(' ', line.find(' ', 4) + 1);
      ok = json != std::string::npos && line.substr(json + 1) == first.reference;
    } else if (line.rfind("ok ", 0) == 0 || line.rfind("err ", 0) == 0) {
      break;
    }
  }
  channel.WriteLine("done");
  while (channel.ReadLine(&line) && line != "end") {
  }
  server->Stop();
  server.reset();
  report.Attempt(1, ok && setup_s >= 0);
  if (!ok || setup_s < 0) {
    report.Mismatch("serve-mix set-up request was not accepted and served byte-identically");
  }
  return setup_s;
}

// A round's request slots: client c's step s is slot c * mix.size() + s, and
// runs the mix entry SlotEntry(c, s, mix.size()).
std::size_t SlotEntry(std::size_t client, std::size_t step, std::size_t mix_size) {
  return (client * mix_size / kClients + step) % mix_size;
}

// One round: every client walks the whole cycle once (from its own offset),
// then the clients meet. Every round therefore sends the same request in
// each slot.
struct Round {
  double seconds = 0.0;
  std::vector<double> latency_ms;  // by slot; +inf where the request failed
};

struct LoopResult {
  std::vector<Round> rounds;
  std::int64_t failed = 0;
  std::vector<double> overhead_ms;  // latency minus the request's offline time
  std::vector<std::vector<double>> shape_ms{std::size(kShapes)};
  std::size_t queued_max = 0;
  double cache_hit_ratio = 0.0;

  void Append(LoopResult&& part) {
    std::move(part.rounds.begin(), part.rounds.end(), std::back_inserter(rounds));
    failed += part.failed;
    overhead_ms.insert(overhead_ms.end(), part.overhead_ms.begin(), part.overhead_ms.end());
    for (std::size_t s = 0; s < shape_ms.size(); ++s) {
      shape_ms[s].insert(shape_ms[s].end(), part.shape_ms[s].begin(), part.shape_ms[s].end());
    }
    queued_max = std::max(queued_max, part.queued_max);
  }
};

// The end-to-end numbers of one loop. Every slot sends the same request in
// every round, so its fastest latency over all rounds is that request's
// cost without interference from other processes on the host (the serving
// counterpart of the engine workloads' fastest windows). The percentiles
// are over those per-slot latencies, plus +inf for each failed request;
// throughput follows from them by Little's law for the closed loop:
// kClients requests in flight.
struct LoopMetrics {
  double requests_per_s = 0.0;
  double ticks_per_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::size_t samples = 0;
};

LoopMetrics Summarize(const LoopResult& loop, const std::vector<MixEntry>& mix) {
  std::vector<double> fastest_ms(kClients * mix.size(), kInf);
  for (const Round& round : loop.rounds) {
    for (std::size_t slot = 0; slot < fastest_ms.size(); ++slot) {
      fastest_ms[slot] = std::min(fastest_ms[slot], round.latency_ms[slot]);
    }
  }
  double busy_s = 0.0;  // one pass over every slot at its fastest latency
  std::int64_t ticks = 0;
  for (std::size_t c = 0; c < kClients; ++c) {
    for (std::size_t step = 0; step < mix.size(); ++step) {
      busy_s += fastest_ms[c * mix.size() + step] / 1e3;
      ticks += mix[SlotEntry(c, step, mix.size())].ticks;
    }
  }
  std::vector<double> samples = fastest_ms;
  samples.insert(samples.end(), static_cast<std::size_t>(loop.failed), kInf);

  LoopMetrics m;
  const double per_client_s = busy_s / static_cast<double>(kClients);
  if (per_client_s > 0 && std::isfinite(per_client_s)) {
    m.requests_per_s = static_cast<double>(fastest_ms.size()) / per_client_s;
    m.ticks_per_s = static_cast<double>(ticks) / per_client_s;
  }
  m.p50_ms = Percentile(samples, 0.5);
  m.p99_ms = Percentile(samples, 0.99);
  m.samples = samples.size();
  return m;
}

// The closed loop, in rounds, until `seconds` have passed. With `poll`, a
// poller samples Status() for the queue depth. Each round runs the whole
// process on the next kWorkers CPUs of `cpus`, so that every slot's request
// meets every CPU over the rounds (see CpuRotation).
LoopResult RunLoop(const std::string& socket_path, const std::vector<MixEntry>& mix,
                   double seconds, bool poll, CpuRotation& cpus, Report& report) {
  cpus.NextForProcess(kWorkers);
  std::unique_ptr<eas::ExperimentServer> server = StartServer(socket_path);
  LoopResult result;
  const Round empty_round{0.0, std::vector<double>(kClients * mix.size(), kInf)};
  result.rounds.push_back(empty_round);
  std::mutex mutex;  // guards `result` and `report` while the clients run
  std::atomic<bool> stop_polling{false};
  std::size_t queued_max = 0;  // written by the poller only, read after its join
  std::thread poller;
  if (poll) {
    poller = std::thread([&] {
      while (!stop_polling.load()) {
        queued_max = std::max(queued_max, server->service().Status().queued);
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    });
  }

  const Clock::time_point deadline =
      Clock::now() +
      std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  Clock::time_point round_start = Clock::now();
  bool stop = false;  // written at each round's end, read by the clients after it
  std::barrier round_end(static_cast<std::ptrdiff_t>(kClients), [&]() noexcept {
    const Clock::time_point now = Clock::now();
    result.rounds.back().seconds = Seconds(round_start, now);
    round_start = now;
    stop = now >= deadline;
    if (!stop) {
      result.rounds.push_back(empty_round);
      cpus.NextForProcess(kWorkers);
    }
  });

  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = eas::ServiceClient::Connect(socket_path);
      if (!client.ok()) {
        std::lock_guard<std::mutex> lock(mutex);
        report.Attempt(1, false);
        report.Mismatch("serve-mix client could not connect: " + client.error().Render());
        round_end.arrive_and_drop();
        return;
      }
      do {
        std::vector<double> mine(mix.size(), kInf);  // by step
        std::int64_t completed = 0;
        std::vector<double> overhead;
        std::vector<std::pair<std::size_t, double>> by_shape;
        std::vector<std::string> mismatches;
        for (std::size_t step = 0; step < mix.size(); ++step) {
          const std::size_t index = SlotEntry(c, step, mix.size());
          const MixEntry& entry = mix[index];
          std::vector<std::string> lines;
          const Clock::time_point t0 = Clock::now();
          auto outcome = client->SubmitAndStream(
              {entry.text}, [&](const eas::ClientRecord& record) { lines.push_back(record.jsonl); });
          const double ms = SecondsSince(t0) * 1e3;
          if (outcome.ok() && lines.size() == 1 && lines.front() == entry.reference) {
            ++completed;
            mine[step] = ms;
            overhead.push_back(ms - entry.offline_ms);
            by_shape.emplace_back(static_cast<std::size_t>(kCycle[index % std::size(kCycle)]), ms);
          } else {
            mismatches.push_back(outcome.ok() ? "record differs from offline for: " + entry.text
                                              : "request failed: " + outcome.error().Render());
          }
        }
        {
          std::lock_guard<std::mutex> lock(mutex);
          std::copy(mine.begin(), mine.end(),
                    result.rounds.back().latency_ms.begin() + static_cast<std::ptrdiff_t>(c * mix.size()));
          result.overhead_ms.insert(result.overhead_ms.end(), overhead.begin(), overhead.end());
          for (const auto& [shape, ms] : by_shape) {
            result.shape_ms[shape].push_back(ms);
          }
          result.failed += static_cast<std::int64_t>(mismatches.size());
          report.Attempt(completed, true);
          for (const std::string& what : mismatches) {
            report.Attempt(1, false);
            report.Mismatch("serve-mix " + what);
          }
        }
        round_end.arrive_and_wait();
      } while (!stop);
    });
  }
  for (std::thread& client : clients) {
    client.join();
  }
  if (poll) {
    stop_polling.store(true);
    poller.join();
    result.queued_max = queued_max;
  }
  const eas::ServiceStatusSnapshot status = server->service().Status();
  const double lookups =
      static_cast<double>(status.scenario_cache_hits + status.scenario_cache_misses);
  result.cache_hit_ratio =
      lookups > 0 ? static_cast<double>(status.scenario_cache_hits) / lookups : 0.0;
  server->Stop();
  return result;
}

// The failure-accounting self-test: a malformed request and one that
// overflows the queue must each come back as an error (never a crash or a
// stall) and count as a failed operation over any latency limit.
void InjectFailures(const std::string& socket_path, const std::vector<MixEntry>& mix,
                    LoopResult& loop, Report& report) {
  std::unique_ptr<eas::ExperimentServer> server = StartServer(socket_path);
  auto client = eas::ServiceClient::Connect(socket_path);
  if (!client.ok()) {
    report.Mismatch("self-test client could not connect: " + client.error().Render());
    return;
  }
  const std::string malformed = mix.front().text + "; no-such-key = 1";
  const std::string overflow = mix.front().text + "; runs = " + std::to_string(kQueueDepth + 1);
  int refused = 0;
  for (const std::string& text : {malformed, overflow}) {
    auto outcome = client->SubmitAndStream({text}, nullptr);
    report.Attempt(1, false);
    ++loop.failed;
    if (!outcome.ok()) {
      ++refused;
      Note("self-test refusal", outcome.error().Render());
    }
  }
  if (refused != 2) {
    report.Mismatch("self-test: the server accepted a request it must refuse");
  }
  server->Stop();
}

}  // namespace

std::vector<std::string> ServeMixRequests(std::uint64_t seed, double scale) {
  std::vector<std::string> texts;
  for (std::size_t e = 0; e < kMixSize; ++e) {
    const MixShape& shape = kShapes[kCycle[e % std::size(kCycle)]];
    char text[160];
    std::snprintf(text, sizeof(text), "%s; duration-s = %g; seed = %llu", shape.text,
                  shape.seconds * scale, static_cast<unsigned long long>(seed * kMixSize + e));
    texts.emplace_back(text);
  }
  return texts;
}

void RunServeMix(const Args& args, Report& report) {
  const std::vector<std::string> texts = ServeMixRequests(args.seed, args.scale);
  const std::vector<MixEntry> mix = BuildReferences(texts, report);
  if (!report.correct()) {
    return;
  }
  const std::string socket_path = SocketPath();

  if (!args.trace) {
    // Set-up is timed in this process: in a fresh one, the first server
    // starts pay one-time thread and socket costs that swamp it. setup_s is
    // the fastest sample, the same filter the request slots get.
    std::vector<double> setup;
    LoopResult loop;
    CpuRotation cpus;
    for (int segment = 0; segment < kSegments; ++segment) {
      for (int i = 0; i < kSetupsPerSegment; ++i) {
        setup.push_back(MeasureSetup(socket_path, mix.front(), report));
      }
      loop.Append(
          RunLoop(socket_path, mix, args.seconds / kSegments, /*poll=*/false, cpus, report));
    }
    if (args.self_test) {
      InjectFailures(socket_path, mix, loop, report);
    }
    const LoopMetrics m = Summarize(loop, mix);
    Note("rounds", std::to_string(loop.rounds.size()) +
                       " (metrics from each request slot's fastest latency)");
    Note("latency samples", std::to_string(m.samples) + " (" + std::to_string(loop.failed) +
                                " failed, over any limit)");
    Note("set-up samples", std::to_string(setup.size()) + ", min " +
                               std::to_string(Percentile(setup, 0.0)) + " s, median " +
                               std::to_string(Median(setup)) + " s");
    for (std::size_t s = 0; s < std::size(kShapes); ++s) {
      Note(std::string("p50 ms served: ") + kShapes[s].text, std::to_string(Median(loop.shape_ms[s])));
    }
    report.Add("ticks_per_s", m.ticks_per_s, "ticks/s");
    report.Add("setup_s", Percentile(setup, 0.0), "s");
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
    report.Add("requests_per_s", m.requests_per_s, "req/s");
    report.Add("latency_p50_ms", m.p50_ms, "ms");
    report.Add("latency_p99_ms", m.p99_ms, "ms");
    return;
  }

  // Traced: the same loop untraced and then with the Status() poller, then
  // the API calls a request passes through, timed one by one.
  CpuRotation cpus;
  const LoopResult untraced = RunLoop(socket_path, mix, args.seconds / 2, false, cpus, report);
  const LoopResult traced = RunLoop(socket_path, mix, args.seconds / 2, true, cpus, report);
  const double untraced_rps = Summarize(untraced, mix).requests_per_s;
  const double traced_rps = Summarize(traced, mix).requests_per_s;
  Note("requests/s untraced vs traced",
       std::to_string(untraced_rps) + " vs " + std::to_string(traced_rps));

  std::vector<double> parse_ns;
  std::vector<double> resolve_ns;
  std::vector<double> cached_ns;
  std::vector<double> jsonl_ns;
  std::vector<double> offline_ms;
  eas::ScenarioCache cache;
  const eas::RunSession session(1);
  auto ns_since = [](Clock::time_point t0) {
    return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  };
  for (int round = 0; round < 3; ++round) {
    for (const MixEntry& entry : mix) {
      Clock::time_point t0 = Clock::now();
      auto parsed = eas::ParseRunRequest(entry.text);
      parse_ns.push_back(ns_since(t0));
      t0 = Clock::now();
      auto resolved = eas::ResolveRunRequest(*parsed);
      resolve_ns.push_back(ns_since(t0));
      t0 = Clock::now();
      (void)eas::ResolveRunRequest(*parsed, &cache);
      cached_ns.push_back(ns_since(t0));
      const std::vector<eas::RunRecord> records = session.Run(*resolved);
      t0 = Clock::now();
      const std::string line = eas::JsonlRecordLine(records.front());
      jsonl_ns.push_back(ns_since(t0));
      if (line != entry.reference) {
        report.Mismatch("serve-mix offline rerun differs for: " + entry.text);
      }
      offline_ms.push_back(entry.offline_ms);
    }
  }
  report.Add("api.parse.ns", Median(parse_ns), "ns");
  report.Add("api.resolve.ns", Median(resolve_ns), "ns");
  report.Add("api.resolve_cached.ns", Median(cached_ns), "ns");
  report.Add("api.jsonl.ns", Median(jsonl_ns), "ns");
  report.Add("service.cache_hit_ratio", traced.cache_hit_ratio, "ratio");
  report.Add("service.queued_max", static_cast<double>(traced.queued_max), "count");
  report.Add("service.run_ms_p50", Median(offline_ms), "ms");
  report.Add("service.overhead_ms_p50", Median(untraced.overhead_ms), "ms");
  report.Add("trace.overhead", untraced_rps > 0 ? traced_rps / untraced_rps : 0.0, "ratio");
}

}  // namespace perfbench
