// RunRequest: one experiment run, described entirely as data.
//
// Every entry point used to hand-assemble the MachineConfig +
// Experiment::Options + ExperimentSpec trio; a RunRequest subsumes them
// behind the same declarative surface eastool's flags expose - scenario,
// policy, governor, topology, workload spec, duration, seed and run count -
// with a text round-trip, so a run can be described in a file, reproduced
// exactly, batched, and diffed:
//
//   # capping comparison, 4 seeds
//   scenario = dvfs-vs-throttle
//   policy = energy_aware
//   duration-s = 60
//   runs = 4
//
// ParseRunRequest reads that `key = value` format ('#' comments, blank
// lines; ';' separates pairs on one line, so a whole request fits on a
// batch-file line) and rejects unknown keys, duplicate keys and malformed
// values with a structured RequestError naming the offending line and key
// (src/api/request_error.h; Render() is the exact legacy diagnostic).
// FormatRunRequest renders the canonical text:
// FormatRunRequest(*ParseRunRequest(s)) is a fixed point.
//
// Optional fields distinguish "not specified" from any explicit value:
// unset fields inherit the scenario's setting when `scenario` names one,
// and the historical eastool defaults otherwise, so a request file and the
// equivalent flag invocation resolve to bit-identical runs.
//
// ResolveRunRequest turns a request into runnable ExperimentSpecs (one per
// run, seed-swept) plus the effective policy/governor names; feed those to
// RunSession (src/api/run_session.h) to execute them into RunRecords. The
// overload taking a ScenarioCache is the warm-process path: a resident
// service resolves thousands of requests against one cached
// scenario/program-library set instead of rebuilding per request (results
// are bit-identical either way - the cache is pure memoization of
// deterministic builds).

#ifndef SRC_API_RUN_REQUEST_H_
#define SRC_API_RUN_REQUEST_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/api/request_error.h"
#include "src/sim/experiment_runner.h"

namespace eas {

class ScenarioCache;

// The most worker threads one count may ask for: `intra-threads` here and
// eastool's --threads. Each worker is an OS thread, so a larger count is a
// typo, not a machine.
inline constexpr std::uint64_t kMaxThreads = 1'024;

struct RunRequest {
  // Label for reports; defaults to the scenario name, or "cli".
  std::string name;

  // Client-chosen correlation label, echoed verbatim into every RunRecord
  // and JSONL line the request produces. Concurrent serve-mode clients use
  // it to demux streamed records; offline runs may use it to join sweep
  // outputs. Empty = untagged (output stays byte-identical to before the
  // key existed).
  std::string tag;

  // ScenarioRegistry name providing the base configuration; "" builds the
  // default machine (the paper's 8-way box) from the fields below instead.
  std::string scenario;

  // "nodes:physical-per-node:smt" (default "2:4:1").
  std::optional<std::string> topology;

  // Workload spec: the ParseWorkloadSpec mini-language
  // (mixed/homog/hot/short/list) or "trace:<file.csv>". Cannot be combined
  // with `scenario` (a scenario's workload is part of its identity);
  // default "mixed:3".
  std::optional<std::string> workload;

  // BalancePolicyRegistry name; "baseline"/"eas"/"temp-only" aliases and
  // '-' for '_' accepted. Default energy_aware.
  std::optional<std::string> policy;

  // FrequencyGovernorRegistry name; default "none" (P0 pinned).
  std::optional<std::string> governor;

  std::optional<double> duration_s;   // simulated seconds (default 120)
  std::optional<double> max_power;    // explicit per-package power limit (W)
  std::optional<double> temp_limit;   // derive per-package limits (default 38 C)
  std::optional<bool> throttle;       // enforce hlt throttling (default off)

  // Seeded fault plan (src/fault/fault_plan.h grammar: off/on/spike/clamp/
  // churn clauses), validated against the resolved topology. "none" cancels
  // a scenario's baked-in plan; unset inherits it (default: no faults).
  std::optional<std::string> faults;

  // Quiescent-span skip-ahead in the engine (default on). Results are
  // bit-identical either way; turning it off is the A/B timing escape hatch
  // (eastool --no-skip-ahead).
  std::optional<bool> skip_ahead;

  // Intra-run worker threads for the package-parallel tick pipeline
  // (MachineConfig::intra_run_threads), at most kMaxThreads. Default 0: the
  // calling thread alone, like 1. Results are bit-identical for every
  // worker count.
  std::optional<std::uint64_t> intra_threads;

  std::optional<std::uint64_t> seed;  // base seed (default 42)

  // Seed-sweep width: the request expands into `runs` specs seeded
  // [seed, seed + runs), so seed + runs - 1 may not pass 2^64 - 1.
  std::uint64_t runs = 1;

  bool operator==(const RunRequest&) const = default;
};

// Parses the `key = value` request text; a RequestError naming the line and
// the offense on unknown/duplicate keys or malformed values.
Expected<RunRequest> ParseRunRequest(const std::string& text);

// Every request-file key, in canonical (format) order. eastool derives its
// request flags from this list.
std::vector<std::string> RunRequestKeys();

// Applies one `key = value` pair onto `request` with exactly the keys and
// value validation ParseRunRequest uses (exposed so eastool's flags share
// the request file's strictness - `--seed 4z2` must be rejected the same
// way `seed = 4z2` is). Returns the error (no line attribution) on an
// unknown key, an empty value, or a malformed value; std::nullopt on
// success.
std::optional<RequestError> ApplyRunRequestField(const std::string& key,
                                                 const std::string& value,
                                                 RunRequest* request);

// Canonical multi-line rendering: set fields only, fixed key order,
// shortest-round-trip numbers. Parse(Format(r)) == r for any valid r.
std::string FormatRunRequest(const RunRequest& request);

// The same canonical rendering on one line ("key = value; key = value"),
// the shape batch files hold one request per line.
std::string FormatRunRequestLine(const RunRequest& request);

// A resolved request: everything needed to run it and label the output.
struct ResolvedRequest {
  RunRequest request;
  std::string policy;                // effective balancing-policy name
  std::string governor;              // effective governor name
  std::vector<ExperimentSpec> specs; // one per run, in seed order
};

// Resolves `request` against the scenario/policy/governor registries with
// exactly the semantics eastool's flags always had: scenario first, explicit
// fields override, defaults fill the rest. A RequestError diagnosing the
// failure (unknown names list the known ones) when the request does not
// describe a runnable experiment. With a non-null `cache`, scenario specs
// and the default program library come from the cache instead of being
// rebuilt - byte-identical results, amortized build cost (the serve-mode
// warm path).
Expected<ResolvedRequest> ResolveRunRequest(const RunRequest& request,
                                            ScenarioCache* cache = nullptr);

// The canned request a registered scenario stands for (scenario = name,
// everything else inherited).
RunRequest RunRequestForScenario(const std::string& scenario);

// Registry policy name for a CLI/request spelling: '-' matches '_', plus
// the aliases eastool has always accepted (baseline, eas, temp-only).
std::string NormalizePolicyName(std::string name);

}  // namespace eas

#endif  // SRC_API_RUN_REQUEST_H_
