// eastool - run energy-aware scheduling experiments from the command line.
//
// Quickstart:
//   eastool --list-scenarios
//   eastool --scenario paper-mixed --duration-s 120 --trace-csv thermal.csv
//   eastool --scenario poisson-open-loop --policy load_only --runs 4
//   eastool --topology 2:4:2 --policy energy_aware --workload mixed:6
//           --duration-s 300 --temp-limit 38 --throttle
//   eastool --policy energy_aware --workload trace:arrivals.csv --summary-csv s.csv
//   eastool --scenario paper-hot-task --runs 3 --print-request > hot.req
//   eastool --request hot.req --summary-csv s.csv
//   eastool --batch sweep.req --jsonl results.jsonl
//
//   eastool serve --socket /tmp/eas.sock             # resident service
//   eastool submit --socket /tmp/eas.sock --batch sweep.req --jsonl out.jsonl
//   eastool status --socket /tmp/eas.sock
//   eastool shutdown --socket /tmp/eas.sock
//
// Every run is described by a RunRequest (src/api/run_request.h): the flags
// below assemble one, --request reads one from a `key = value` file, and
// --print-request writes the canonical file for the current flags - so any
// flag invocation can be captured as data and replayed exactly. --batch
// runs one request per line of a file, fanned across the parallel
// ExperimentRunner together. Once every run has finished, the outputs are
// written from the records (src/api/result_sink.h): the summary/trace CSVs,
// JSONL and an ASCII thermal plot.
//
// The serve/submit/status/shutdown verbs talk the line protocol of
// src/service/wire.h over a Unix socket; `submit` records are byte-for-byte
// what the same request writes through --jsonl offline.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/api/result_sink.h"
#include "src/api/run_request.h"
#include "src/api/run_session.h"
#include "src/base/flags.h"
#include "src/base/text.h"
#include "src/fault/fault_plan.h"
#include "src/freq/governor_registry.h"
#include "src/service/experiment_server.h"
#include "src/service/service_client.h"
#include "src/sim/csv_export.h"
#include "src/sim/scenario.h"

namespace {

void PrintUsage() {
  std::printf(
      "usage: eastool [verb] [flags]\n"
      "verbs (default: run the request offline, in this process):\n"
      "  serve               run the resident experiment service: listen on\n"
      "                      --socket, admit requests into a bounded queue\n"
      "                      (--queue-depth), execute on a persistent worker\n"
      "                      pool (--threads), stream records back per client\n"
      "  submit              send the current request(s) (flags / --request /\n"
      "                      --batch) to a running service and stream results;\n"
      "                      --jsonl writes records byte-identical to the same\n"
      "                      requests run offline\n"
      "  status              print the service's status JSON (queue depth,\n"
      "                      in-flight and completed runs, runs/s, uptime)\n"
      "  shutdown            drain the service and stop it\n"
      "flags:\n"
      "  --socket PATH       Unix socket the service listens on / clients dial\n"
      "  --queue-depth N     serve: job slots in the admission queue (default 64;\n"
      "                      a submission needing more free slots is rejected\n"
      "                      whole with queue-full)\n"
      "  --list-scenarios    list registered scenarios and exit\n"
      "  --scenario NAME     run a registered scenario (flags below override it)\n"
      "  --topology SPEC     colon-separated level widths, outermost level first,\n"
      "                      last level = SMT threads per package (default 2:4:1,\n"
      "                      the classic nodes:physical-per-node:smt grid). Up to\n"
      "                      8 levels build arbitrary-depth domain trees, e.g.\n"
      "                      4:8:2:4:2; levels can be named: rack=2:board=4:\n"
      "                      node=8:package=4:smt=2\n"
      "  --policy NAME       any BalancePolicyRegistry name (default energy_aware;\n"
      "                      aliases: baseline = load_only, eas = energy_aware,\n"
      "                      temp-only = temperature_only; '-' matches '_')\n"
      "  --workload SPEC     mixed:<inst> | homog:<m>,<p>,<b> | hot:<n> | short:<n>\n"
      "                      | list:<prog>[*<count>],...  (programs by name)\n"
      "                      | trace:<file.csv>   (rows: tick,program[,nice]);\n"
      "                      counts are digits, at most 1000000 tasks per spec\n"
      "  --governor NAME     DVFS frequency governor (default none = P0 pinned;\n"
      "                      see --list-governors)\n"
      "  --list-governors    list registered frequency governors and exit\n"
      "  --faults SPEC       seeded fault plan injected at exact ticks: comma-\n"
      "                      separated off:<cpu>@<tick> | on:<cpu>@<tick> |\n"
      "                      spike:<pkg>@<tick>:<degC>:<dur> |\n"
      "                      clamp:<pkg>@<tick>:<floor>:<dur> |\n"
      "                      churn:<n>@<horizon>:<seed> clauses, or the literal\n"
      "                      none to cancel a scenario's plan (see --list-faults;\n"
      "                      replays are bit-identical for any thread count)\n"
      "  --list-faults       print the fault-plan grammar and exit\n"
      "  --duration-s SEC    simulated seconds (default 120)\n"
      "  --runs N            expand into an N-seed sweep (default 1)\n"
      "  --seed N            experiment seed (default 42)\n"
      "  --tag LABEL         correlation tag echoed into every record (serve\n"
      "                      clients demux on it; empty = untagged)\n"
      "  --max-power W       explicit per-package power limit\n"
      "  --temp-limit C      derive per-package limits from cooling (default 38)\n"
      "  --throttle          enforce thermal throttling\n"
      "  --no-skip-ahead     step quiescent spans tick by tick instead of\n"
      "                      skipping ahead (results are bit-identical; this\n"
      "                      is the A/B timing escape hatch)\n"
      "  --intra-threads N   intra-run workers for the package-parallel tick\n"
      "                      pipeline (default 0 = the calling thread, like 1;\n"
      "                      at most 1024; results are bit-identical for every N)\n"
      "  --request FILE      load a RunRequest file (key = value lines; flags\n"
      "                      above override its fields)\n"
      "  --batch FILE        run every request in FILE (one per line, 'key = v;\n"
      "                      key = v' form) as one parallel sweep; run-shaping\n"
      "                      flags are rejected, the output flags below\n"
      "                      (--trace-csv, --summary-csv, --jsonl, --plot) apply\n"
      "  --print-request     print the canonical request file for the current\n"
      "                      flags and exit (replay it with --request); with\n"
      "                      --batch, the canonical batch file (one per line)\n"
      "  --threads N         runner/service worker threads, 0 = hardware\n"
      "                      (default 0, at most 1024)\n"
      "  --trace-csv FILE    write each run's per-CPU thermal power trace: run 0\n"
      "                      to FILE, run K of a --runs/--batch sweep to FILE.runK\n"
      "  --summary-csv FILE  write the run summary: a single run keeps the\n"
      "                      key,value format; a sweep writes a table with one\n"
      "                      row per run (columns run,name,seed,<metrics>)\n"
      "  --jsonl FILE        write one JSON object per run (metrics + the\n"
      "                      request that reproduces it); FILE '-' = stdout\n"
      "  --plot              print an ASCII thermal-power plot per run\n");
}

// Every request key is a flag of the same name, except these two: `name`
// has no flag, and `skip-ahead` is the bare switch --no-skip-ahead.
const std::map<std::string, std::string> kFlagExceptions = {{"name", ""},
                                                            {"skip-ahead", "no-skip-ahead"}};

// The flag that sets request key `key`; "" for a key without one.
std::string FlagForKey(const std::string& key) {
  const auto exception = kFlagExceptions.find(key);
  return exception == kFlagExceptions.end() ? key : exception->second;
}

// The flags that shape the request itself (as opposed to execution/output):
// one per request key, and --request; rejected with --batch, where the batch
// file is the single source of truth.
std::vector<std::string> RequestFlags() {
  std::vector<std::string> flags;
  for (const std::string& key : eas::RunRequestKeys()) {
    if (const std::string flag = FlagForKey(key); !flag.empty()) {
      flags.push_back(flag);
    }
  }
  flags.push_back("request");
  return flags;
}

// Every flag eastool takes: the request flags, then listing, verb, execution
// and output flags.
std::vector<std::string> KnownFlags() {
  std::vector<std::string> flags = RequestFlags();
  flags.insert(flags.end(), {"help", "list-scenarios", "list-governors", "list-faults",
                             "socket", "queue-depth", "batch", "print-request", "threads",
                             "trace-csv", "summary-csv", "jsonl", "plot"});
  return flags;
}

bool ReadFileToString(const std::string& path, std::string* out) {
  std::ifstream stream(path, std::ios::binary);
  if (!stream) {
    return false;
  }
  std::ostringstream buffer;
  buffer << stream.rdbuf();
  *out = buffer.str();
  return true;
}

// Overlays the request-shaping flags onto `request` (flags win over a
// --request file, exactly as they win over a --scenario base). Values go
// through the same validation the request-file parser applies, so
// `--seed 4z2` is rejected exactly like `seed = 4z2` in a file instead of
// silently running with seed 0. False (with a printed diagnostic) on a bad
// value.
bool ApplyFlagOverrides(const eas::FlagParser& flags, eas::RunRequest* request) {
  for (const std::string& key : eas::RunRequestKeys()) {
    const std::string flag = FlagForKey(key);
    if (flag.empty() || !flags.Has(flag)) {
      continue;
    }
    std::string value = flags.GetString(flag);
    if (key == "skip-ahead") {
      // --no-skip-ahead is a bare switch for the file's `skip-ahead = false`.
      if (!value.empty()) {
        std::fprintf(stderr, "--%s: takes no value, got \"%s\"\n", flag.c_str(),
                     value.c_str());
        return false;
      }
      value = "false";
    }
    // --throttle is also a bare switch: without a value it means true.
    if (value.empty() && key == "throttle") {
      value = "true";
    }
    if (auto error = eas::ApplyRunRequestField(key, value, request)) {
      std::fprintf(stderr, "--%s: %s\n", flag.c_str(), error->Render().c_str());
      return false;
    }
  }
  return true;
}

// Parses a --batch file into one request per non-blank line. False (with
// printed diagnostics) on a malformed line.
bool LoadBatchRequests(const std::string& path, std::vector<eas::RunRequest>* requests) {
  std::string text;
  if (!ReadFileToString(path, &text)) {
    std::fprintf(stderr, "cannot read --batch file %s\n", path.c_str());
    return false;
  }
  std::istringstream lines(text);
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(lines, line)) {
    ++line_number;
    const std::size_t hash = line.find('#');
    const std::string body = hash == std::string::npos ? line : line.substr(0, hash);
    if (eas::Trim(body).empty()) {
      continue;  // blank or comment-only line
    }
    const auto request = eas::ParseRunRequest(body);
    if (!request.ok()) {
      std::fprintf(stderr, "%s:%zu: %s\n", path.c_str(), line_number,
                   request.error().Render().c_str());
      return false;
    }
    eas::RunRequest named = *request;
    if (named.name.empty()) {
      named.name = named.scenario.empty() ? "req" + std::to_string(requests->size())
                                          : named.scenario;
    }
    requests->push_back(std::move(named));
  }
  if (requests->empty()) {
    std::fprintf(stderr, "--batch file %s holds no requests\n", path.c_str());
    return false;
  }
  return true;
}

// Assembles the invocation's requests from --batch / --request / flags,
// exactly the same way for offline runs and `submit`.
bool AssembleRequests(const eas::FlagParser& flags, bool batch,
                      std::vector<eas::RunRequest>* requests) {
  if (batch) {
    for (const std::string& flag : RequestFlags()) {
      if (flags.Has(flag)) {
        std::fprintf(stderr, "--%s cannot be combined with --batch (put it in the file)\n",
                     flag.c_str());
        return false;
      }
    }
    return LoadBatchRequests(flags.GetString("batch"), requests);
  }
  eas::RunRequest request;
  if (flags.Has("request")) {
    const std::string path = flags.GetString("request");
    std::string text;
    if (!ReadFileToString(path, &text)) {
      std::fprintf(stderr, "cannot read --request file %s\n", path.c_str());
      return false;
    }
    const auto parsed = eas::ParseRunRequest(text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), parsed.error().Render().c_str());
      return false;
    }
    request = *parsed;
  }
  if (!ApplyFlagOverrides(flags, &request)) {
    return false;
  }
  requests->push_back(std::move(request));
  return true;
}

// Writes `text` to the --jsonl destination, `path` or stdout for "-". The
// failure ("failed to open PATH" / "failed to write PATH"), or "".
std::string WriteJsonl(const std::string& path, const std::string& text) {
  if (path == "-") {
    std::fputs(text.c_str(), stdout);
    return "";
  }
  std::ofstream stream(path, std::ios::binary);
  if (!stream) {
    return "failed to open " + path;
  }
  stream << text;
  stream.close();
  return stream ? "" : "failed to write " + path;
}

void PrintResult(const eas::RunRecord& record) {
  const eas::MachineConfig& config = record.spec.config;
  const eas::RunResult& result = record.result;
  std::printf("run:               %s\n", record.spec.name.c_str());
  std::printf("arrivals:          %zu scheduled\n", record.spec.workload.size());
  std::printf("cpus:              %zu logical / %zu physical\n", config.topology.num_logical(),
              config.topology.num_physical());
  std::printf("throughput:        %.1f work-ticks/s\n", result.Throughput());
  std::printf("migrations:        %lld\n", static_cast<long long>(result.migrations));
  std::printf("completions:       %lld\n", static_cast<long long>(result.completions));
  std::printf("avg throttled:     %.2f%%\n", result.AverageThrottledFraction() * 100);
  if (!result.average_frequency.empty()) {
    std::printf("avg frequency:     %.3fx\n", result.AverageFrequencyMultiplier());
  }
  std::printf("peak thermal:      %.1f W\n", result.thermal_power.MaxValue());
  std::printf("spread (steady):   %.1f W\n",
              result.MaxThermalSpreadAfter(record.spec.options.duration_ticks / 2));
}

std::string RequireSocket(const eas::FlagParser& flags) {
  const std::string socket = flags.GetString("socket");
  if (socket.empty()) {
    std::fprintf(stderr, "eastool: this verb needs --socket PATH\n");
  }
  return socket;
}

// --- verbs -------------------------------------------------------------------

int RunServe(const eas::FlagParser& flags, std::uint64_t threads, std::uint64_t queue_depth) {
  const std::string socket = RequireSocket(flags);
  if (socket.empty()) {
    return 1;
  }
  eas::ServerOptions options;
  options.socket_path = socket;
  options.service.queue_depth = static_cast<std::size_t>(std::max<std::uint64_t>(1, queue_depth));
  options.service.workers = static_cast<std::size_t>(threads);
  auto server = eas::ExperimentServer::Start(std::move(options));
  if (!server.ok()) {
    std::fprintf(stderr, "eastool serve: %s\n", server.error().Render().c_str());
    return 1;
  }
  // The smoke script and wrappers poll for this line to know the socket is
  // live; keep it first and flushed.
  std::printf("serving on %s\n", socket.c_str());
  std::fflush(stdout);
  (*server)->Wait();
  std::printf("service stopped\n");
  return 0;
}

int RunSubmit(const eas::FlagParser& flags) {
  const std::string socket = RequireSocket(flags);
  if (socket.empty()) {
    return 1;
  }
  std::vector<eas::RunRequest> requests;
  if (!AssembleRequests(flags, flags.Has("batch"), &requests)) {
    return 1;
  }
  std::vector<std::string> texts;
  texts.reserve(requests.size());
  for (const eas::RunRequest& request : requests) {
    texts.push_back(eas::FormatRunRequestLine(request));
  }

  auto client = eas::ServiceClient::Connect(socket);
  if (!client.ok()) {
    std::fprintf(stderr, "eastool submit: %s\n", client.error().Render().c_str());
    return 1;
  }

  // Records arrive in completion order; for file output they are reordered
  // by (submission, index) so the bytes match the offline --jsonl file for
  // the same request.
  const std::string jsonl_path = flags.GetString("jsonl");
  std::map<std::pair<std::uint64_t, std::size_t>, std::string> ordered;
  auto outcome = client->SubmitAndStream(texts, [&](const eas::ClientRecord& record) {
    if (jsonl_path.empty()) {
      std::printf("%s\n", record.jsonl.c_str());
    } else {
      ordered[{record.submission, record.index}] = record.jsonl;
    }
  });
  if (!outcome.ok()) {
    std::fprintf(stderr, "eastool submit: %s\n", outcome.error().Render().c_str());
    return 1;
  }
  if (!jsonl_path.empty()) {
    std::string jsonl;
    for (const auto& [key, line] : ordered) {
      jsonl += line;
      jsonl += '\n';
    }
    if (const std::string error = WriteJsonl(jsonl_path, jsonl); !error.empty()) {
      std::fprintf(stderr, "eastool submit: %s\n", error.c_str());
      return 1;
    }
    if (jsonl_path != "-") {
      std::printf("jsonl written:     %s\n", jsonl_path.c_str());
    }
  }
  std::fprintf(stderr, "%zu records from %zu submissions\n", outcome->records,
               outcome->submissions.size());
  return 0;
}

int RunStatus(const eas::FlagParser& flags) {
  const std::string socket = RequireSocket(flags);
  if (socket.empty()) {
    return 1;
  }
  auto client = eas::ServiceClient::Connect(socket);
  if (!client.ok()) {
    std::fprintf(stderr, "eastool status: %s\n", client.error().Render().c_str());
    return 1;
  }
  auto status = client->QueryStatus();
  if (!status.ok()) {
    std::fprintf(stderr, "eastool status: %s\n", status.error().Render().c_str());
    return 1;
  }
  std::printf("%s\n", status->c_str());
  return 0;
}

int RunShutdown(const eas::FlagParser& flags) {
  const std::string socket = RequireSocket(flags);
  if (socket.empty()) {
    return 1;
  }
  auto client = eas::ServiceClient::Connect(socket);
  if (!client.ok()) {
    std::fprintf(stderr, "eastool shutdown: %s\n", client.error().Render().c_str());
    return 1;
  }
  auto ack = client->RequestShutdown();
  if (!ack.ok()) {
    std::fprintf(stderr, "eastool shutdown: %s\n", ack.error().Render().c_str());
    return 1;
  }
  std::printf("service stopping\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const eas::FlagParser flags(argc, argv);

  // Typos must not be silently swallowed: every flag is validated against
  // the known set before anything runs.
  const std::vector<std::string> unknown = flags.UnknownFlags(KnownFlags());
  if (!unknown.empty()) {
    for (const std::string& flag : unknown) {
      std::fprintf(stderr, "unknown flag --%s\n", flag.c_str());
    }
    PrintUsage();
    return 1;
  }
  // Nor may a repeated flag keep only its last value.
  const std::vector<std::string> repeated = flags.RepeatedFlags();
  if (!repeated.empty()) {
    for (const std::string& flag : repeated) {
      std::fprintf(stderr, "flag --%s given more than once\n", flag.c_str());
    }
    return 1;
  }

  // Worker counts take the request file's integers: digits only, so
  // `--threads 4z` cannot run as 4, nor `--threads abc` as 0.
  std::uint64_t threads = 0;
  std::uint64_t queue_depth = 64;
  for (const auto& [flag, count] : {std::pair{"threads", &threads},
                                    std::pair{"queue-depth", &queue_depth}}) {
    if (flags.Has(flag) && !eas::ParseUint(flags.GetString(flag), count)) {
      std::fprintf(stderr, "--%s: bad value \"%s\" (want a non-negative integer)\n", flag,
                   flags.GetString(flag).c_str());
      return 1;
    }
  }
  // Capped before any verb runs, so neither the service nor the offline
  // runner starts a thread for a count past the cap.
  if (threads > eas::kMaxThreads) {
    std::fprintf(stderr, "--threads: bad value \"%s\" (want at most %llu)\n",
                 flags.GetString("threads").c_str(),
                 static_cast<unsigned long long>(eas::kMaxThreads));
    return 1;
  }

  if (flags.Has("help")) {
    PrintUsage();
    return 0;
  }

  if (!flags.positional().empty()) {
    const std::string& verb = flags.positional().front();
    if (flags.positional().size() > 1) {
      std::fprintf(stderr, "eastool: one verb only, got \"%s\" and \"%s\"\n", verb.c_str(),
                   flags.positional()[1].c_str());
      return 1;
    }
    if (verb == "serve") {
      return RunServe(flags, threads, queue_depth);
    }
    if (verb == "submit") {
      return RunSubmit(flags);
    }
    if (verb == "status") {
      return RunStatus(flags);
    }
    if (verb == "shutdown") {
      return RunShutdown(flags);
    }
    std::fprintf(stderr, "unknown verb \"%s\" (known: serve, submit, status, shutdown)\n",
                 verb.c_str());
    PrintUsage();
    return 1;
  }

  if (flags.Has("list-scenarios")) {
    for (const auto& info : eas::ScenarioRegistry::Global().List()) {
      std::printf("%-20s %s\n", info.name.c_str(), info.description.c_str());
    }
    return 0;
  }

  if (flags.Has("list-governors")) {
    for (const std::string& name : eas::FrequencyGovernorRegistry::Global().Names()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }

  if (flags.Has("list-faults")) {
    std::fputs(eas::FaultPlanGrammar().c_str(), stdout);
    return 0;
  }

  // --- assemble the request(s) ----------------------------------------------
  const bool batch = flags.Has("batch");
  std::vector<eas::RunRequest> requests;
  if (!AssembleRequests(flags, batch, &requests)) {
    return 1;
  }

  // --- resolve ---------------------------------------------------------------
  std::vector<eas::ResolvedRequest> resolved;
  for (const eas::RunRequest& request : requests) {
    auto r = eas::ResolveRunRequest(request);
    if (!r.ok()) {
      std::fprintf(stderr, "eastool: %s\n", r.error().Render().c_str());
      return 1;
    }
    resolved.push_back(std::move(*r));
  }

  if (flags.Has("print-request")) {
    // One canonical request file for a single invocation; for --batch, the
    // canonical batch file (one single-line request per line, replayable
    // with --batch).
    for (const eas::ResolvedRequest& r : resolved) {
      if (batch) {
        std::printf("%s\n", eas::FormatRunRequestLine(r.request).c_str());
      } else {
        std::fputs(eas::FormatRunRequest(r.request).c_str(), stdout);
      }
    }
    return 0;
  }

  // --- run (always through the parallel runner) ------------------------------
  const eas::RunSession session(static_cast<std::size_t>(threads));
  std::vector<eas::RunRecord> records;
  try {
    records = session.Run(resolved);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "run failed: %s\n", e.what());
    return 1;
  }

  // --- outputs, from the finished records -------------------------------------
  // Stdout output comes first, record by record: the JSONL line (for
  // `--jsonl -`), then the plot.
  const std::string trace_csv = flags.GetString("trace-csv");
  const std::string summary_csv = flags.GetString("summary-csv");
  const std::string jsonl_path = flags.GetString("jsonl");
  std::string jsonl;  // the --jsonl file's contents
  for (const eas::RunRecord& record : records) {
    const std::string line = jsonl_path.empty() ? "" : eas::JsonlRecordLine(record) + '\n';
    if (jsonl_path == "-") {
      std::fputs(line.c_str(), stdout);
    } else {
      jsonl += line;
    }
    if (flags.Has("plot")) {
      std::fputs(eas::RecordPlot(record).c_str(), stdout);
    }
  }

  if (!batch) {
    const eas::ResolvedRequest& only = resolved.front();
    std::printf("policy:            %s\n", only.policy.c_str());
    if (only.governor != "none") {
      std::printf("governor:          %s\n", only.governor.c_str());
    }
    if (!only.request.scenario.empty()) {
      std::printf("scenario:          %s\n", only.request.scenario.c_str());
    }
  }
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (i > 0) {
      std::printf("\n");
    }
    PrintResult(records[i]);
  }

  // Every file is written; the first failure, if any, is reported.
  std::string error;
  if (!trace_csv.empty()) {
    for (const eas::RunRecord& record : records) {
      const std::string path = eas::TracePath(trace_csv, record.index);
      if (!eas::WriteFile(path, eas::SeriesSetToCsv(record.result.thermal_power)) &&
          error.empty()) {
        error = "failed to write trace CSV " + path;
      }
    }
  }
  if (!summary_csv.empty() && !eas::WriteFile(summary_csv, eas::SummaryCsv(records)) &&
      error.empty()) {
    error = "failed to write summary CSV " + summary_csv;
  }
  if (!jsonl_path.empty() && jsonl_path != "-") {
    const std::string jsonl_error = WriteJsonl(jsonl_path, jsonl);
    if (error.empty()) {
      error = jsonl_error;
    }
  }
  if (!error.empty()) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  if (!trace_csv.empty()) {
    std::printf("trace written:     %s%s\n", trace_csv.c_str(),
                records.size() > 1 ? " (+ .runK per run)" : "");
  }
  if (!summary_csv.empty()) {
    std::printf("summary written:   %s%s\n", summary_csv.c_str(),
                records.size() > 1 ? " (one row per run)" : "");
  }
  if (!jsonl_path.empty() && jsonl_path != "-") {
    std::printf("jsonl written:     %s\n", jsonl_path.c_str());
  }
  return 0;
}
