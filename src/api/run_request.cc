#include "src/api/run_request.h"

#include <charconv>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>

#include "src/base/text.h"
#include "src/core/policy_registry.h"
#include "src/fault/fault_plan.h"
#include "src/freq/governor_registry.h"
#include "src/sim/scenario.h"
#include "src/sim/scenario_cache.h"
#include "src/workloads/generators.h"
#include "src/workloads/programs.h"
#include "src/workloads/workload_builder.h"

namespace eas {
namespace {

RequestError MakeError(RequestErrorCode code, std::string key, std::string message) {
  RequestError error;
  error.code = code;
  error.key = std::move(key);
  error.message = std::move(message);
  return error;
}

// --- the value rules, by member type ------------------------------------------

// Each parses `text` into `*out`: nullptr when it parsed, else the form the
// value must take (for the "bad value" diagnostic).
const char* ParseValue(const std::string& text, std::string* out) {
  *out = text;
  return nullptr;
}

// None of the numeric request fields can mean anything non-finite.
const char* ParseValue(const std::string& text, double* out) {
  return ParseFinite(text, out) ? nullptr : "a number";
}

const char* ParseValue(const std::string& text, bool* out) {
  if (text == "true" || text == "1" || text == "on" || text == "yes") {
    *out = true;
    return nullptr;
  }
  if (text == "false" || text == "0" || text == "off" || text == "no") {
    *out = false;
    return nullptr;
  }
  return "true/false";
}

const char* ParseValue(const std::string& text, std::uint64_t* out) {
  return ParseUint(text, out) ? nullptr : "a non-negative integer";
}

std::string FormatValue(const std::string& value) { return value; }

// Shortest decimal that round-trips: "60", "0.5", "1e+30".
std::string FormatValue(double value) {
  char buffer[64];
  const auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, ptr);
}

std::string FormatValue(bool value) { return value ? "true" : "false"; }

std::string FormatValue(std::uint64_t value) { return std::to_string(value); }

// A field's value, or nullptr while it is unset - an empty optional, an
// empty string, or the default runs == 1. Unset fields are not formatted.
template <typename T>
const T* SetValue(const std::optional<T>& field) {
  return field.has_value() ? &*field : nullptr;
}

const std::string* SetValue(const std::string& field) {
  return field.empty() ? nullptr : &field;
}

const std::uint64_t* SetValue(const std::uint64_t& runs) { return runs == 1 ? nullptr : &runs; }

// The type a field's value parses to: the member's own, or its optional's.
template <typename T>
struct ValueOf {
  using type = T;
};
template <typename T>
struct ValueOf<std::optional<T>> {
  using type = T;
};

// --- the key table ---------------------------------------------------------------

// One request key and the two things every key needs, both derived from the
// RunRequest member it names.
struct KeyField {
  const char* key;
  // Parses `value` into the member, as ParseValue does (the request is left
  // alone when it does not parse).
  const char* (*apply)(const std::string& value, RunRequest* request);
  // The member's canonical text; std::nullopt while it is unset.
  std::optional<std::string> (*format)(const RunRequest& request);
};

template <auto kMember>
const char* ApplyField(const std::string& value, RunRequest* request) {
  typename ValueOf<std::remove_reference_t<decltype(request->*kMember)>>::type parsed{};
  const char* wanted = ParseValue(value, &parsed);
  if (wanted == nullptr) {
    request->*kMember = std::move(parsed);
  }
  return wanted;
}

template <auto kMember>
std::optional<std::string> FormatField(const RunRequest& request) {
  const auto* value = SetValue(request.*kMember);
  if (value == nullptr) {
    return std::nullopt;
  }
  return FormatValue(*value);
}

template <auto kMember>
constexpr KeyField Field(const char* key) {
  return KeyField{key, &ApplyField<kMember>, &FormatField<kMember>};
}

// The request-file keys, in canonical (format) order: parsing, formatting,
// the unknown-key list and the text-safety check all walk this table, so a
// new key is one row here. Kept aligned with the eastool flag names so a
// request file reads like the command line it replaces.
constexpr KeyField kFields[] = {
    Field<&RunRequest::name>("name"),
    Field<&RunRequest::tag>("tag"),
    Field<&RunRequest::scenario>("scenario"),
    Field<&RunRequest::topology>("topology"),
    Field<&RunRequest::workload>("workload"),
    Field<&RunRequest::policy>("policy"),
    Field<&RunRequest::governor>("governor"),
    Field<&RunRequest::duration_s>("duration-s"),
    Field<&RunRequest::max_power>("max-power"),
    Field<&RunRequest::temp_limit>("temp-limit"),
    Field<&RunRequest::throttle>("throttle"),
    Field<&RunRequest::faults>("faults"),
    Field<&RunRequest::skip_ahead>("skip-ahead"),
    Field<&RunRequest::intra_threads>("intra-threads"),
    Field<&RunRequest::seed>("seed"),
    Field<&RunRequest::runs>("runs"),
};

// Applies one parsed `key = value` pair onto `request`; the error (no line
// attribution - ParseRunRequest adds it) on an unknown key or a malformed
// value.
std::optional<RequestError> ApplyPair(const std::string& key, const std::string& value,
                                      RunRequest* request) {
  for (const KeyField& field : kFields) {
    if (key != field.key) {
      continue;
    }
    if (const char* wanted = field.apply(value, request)) {
      return MakeError(RequestErrorCode::kBadValue, key,
                       "bad value for " + key + ": \"" + value + "\" (want " + wanted + ")");
    }
    return std::nullopt;
  }
  std::string known;
  for (const KeyField& field : kFields) {
    known += known.empty() ? field.key : std::string(", ") + field.key;
  }
  return MakeError(RequestErrorCode::kUnknownKey, key,
                   "unknown key \"" + key + "\" (known: " + known + ")");
}

std::string FormatWithSeparator(const RunRequest& request, const char* separator) {
  std::string out;
  for (const KeyField& field : kFields) {
    const std::optional<std::string> value = field.format(request);
    if (!value.has_value()) {
      continue;
    }
    if (!out.empty()) {
      out += separator;
    }
    out += field.key;
    out += " = ";
    out += *value;
  }
  return out;
}

// True when `value` survives the text round trip unchanged: no comment or
// separator characters, no edge whitespace the parser would trim away.
bool TextSafe(const std::string& value) {
  return value == Trim(value) && value.find_first_of("#;\n\r") == std::string::npos;
}

// A request expands into one spec per run. Like the fault plan's event cap,
// this bound turns an absurd count into a structured error instead of an
// allocation failure.
constexpr std::uint64_t kMaxRuns = 100'000;

}  // namespace

std::vector<std::string> RunRequestKeys() {
  std::vector<std::string> keys;
  for (const KeyField& field : kFields) {
    keys.push_back(field.key);
  }
  return keys;
}

std::optional<RequestError> ApplyRunRequestField(const std::string& key,
                                                 const std::string& value,
                                                 RunRequest* request) {
  if (value.empty()) {
    return MakeError(RequestErrorCode::kEmptyValue, key, "empty value for \"" + key + "\"");
  }
  return ApplyPair(key, value, request);
}

Expected<RunRequest> ParseRunRequest(const std::string& text) {
  RunRequest request;
  std::vector<std::string> seen;
  std::size_t line_number = 0;
  // Attaches the current line to an error built below; Render() turns it
  // back into the historical "line N: ..." diagnostic.
  const auto at_line = [&line_number](RequestError error) {
    error.line = line_number;
    return error;
  };
  for (const std::string& line : SplitFields(text, '\n')) {
    ++line_number;
    // Strip comments, then split the remainder into ';'-separated pairs so
    // a whole request fits on one (batch-file) line.
    for (const std::string& field : SplitFields(line.substr(0, line.find('#')), ';')) {
      const std::string pair = Trim(field);
      if (pair.empty()) {
        continue;
      }
      const std::size_t eq = pair.find('=');
      if (eq == std::string::npos) {
        return at_line(MakeError(RequestErrorCode::kSyntax, "",
                                 "expected key = value, got \"" + pair + "\""));
      }
      const std::string key = Trim(pair.substr(0, eq));
      const std::string value = Trim(pair.substr(eq + 1));
      if (key.empty()) {
        return at_line(MakeError(RequestErrorCode::kSyntax, "", "missing key before '='"));
      }
      if (value.empty()) {
        return at_line(MakeError(RequestErrorCode::kEmptyValue, key,
                                 "empty value for \"" + key + "\""));
      }
      for (const std::string& earlier : seen) {
        if (earlier == key) {
          return at_line(MakeError(RequestErrorCode::kDuplicateKey, key,
                                   "duplicate key \"" + key + "\""));
        }
      }
      seen.push_back(key);
      if (auto error = ApplyPair(key, value, &request)) {
        return at_line(std::move(*error));
      }
    }
  }
  return request;
}

std::string FormatRunRequest(const RunRequest& request) {
  std::string out = FormatWithSeparator(request, "\n");
  if (!out.empty()) {
    out += '\n';
  }
  return out;
}

std::string FormatRunRequestLine(const RunRequest& request) {
  return FormatWithSeparator(request, "; ");
}

std::string NormalizePolicyName(std::string name) {
  for (char& c : name) {
    if (c == '-') {
      c = '_';
    }
  }
  if (name == "baseline") {
    return "load_only";
  }
  if (name == "eas") {
    return "energy_aware";
  }
  if (name == "temp_only") {  // the CLI's historical spelling was temp-only
    return "temperature_only";
  }
  return name;
}

Expected<ResolvedRequest> ResolveRunRequest(const RunRequest& request, ScenarioCache* cache) {
  ResolvedRequest resolved;
  resolved.request = request;
  const bool from_scenario = !request.scenario.empty();

  // Every resolved request must survive FormatRunRequest -> ParseRunRequest
  // unchanged - that round trip is what makes a JSONL record or a
  // --print-request file an exact reproduction recipe. A value the text
  // format cannot carry (comment/separator characters, edge whitespace)
  // would silently replay as a *different* run, so it is rejected here,
  // where programmatically built requests also pass through.
  for (const KeyField& field : kFields) {
    const std::optional<std::string> text = field.format(request);
    if (text.has_value() && !TextSafe(*text)) {
      return MakeError(RequestErrorCode::kBadValue, field.key,
                       std::string("bad ") + field.key +
                           ": the request text format cannot carry '#', ';', newlines or "
                           "edge whitespace");
    }
  }

  ExperimentSpec spec;
  if (from_scenario) {
    if (!ScenarioRegistry::Global().Contains(request.scenario)) {
      return MakeError(RequestErrorCode::kUnknownName, "scenario",
                       ScenarioRegistry::Global().UnknownMessage("scenario", request.scenario));
    }
    // The cached build and a fresh factory call are the same deterministic
    // data; the cache only amortizes workload generation across requests.
    spec = cache != nullptr ? *cache->Scenario(request.scenario)
                            : ScenarioRegistry::Global().BuildOrThrow(request.scenario);
    if (request.workload.has_value()) {
      return MakeError(RequestErrorCode::kBadValue, "workload",
                       "workload cannot override a scenario workload (scenario \"" +
                           request.scenario + "\" defines its own)");
    }
  } else {
    spec.name = "cli";
  }
  if (!request.name.empty()) {
    spec.name = request.name;
  }

  // --- machine -------------------------------------------------------------
  if (!from_scenario || request.topology.has_value()) {
    std::string topo_error;
    const auto topology = ParseTopologySpec(request.topology.value_or("2:4:1"), &topo_error);
    if (!topology.has_value()) {
      return MakeError(RequestErrorCode::kBadValue, "topology", "bad topology: " + topo_error);
    }
    spec.config.topology = *topology;
    // The paper's 8-package box gets its measured per-package cooling; any
    // other shape cools uniformly (same rule eastool always applied).
    if (spec.config.topology.num_physical() == 8) {
      spec.config.cooling = CoolingProfile::PaperXSeries445();
    } else {
      spec.config.cooling =
          CoolingProfile::Uniform(spec.config.topology.num_physical(), ThermalParams{});
    }
  }
  if (request.max_power.has_value()) {
    // Programmatically built requests bypass the parser, so the finiteness
    // guard repeats here (and for temp-limit / duration-s below).
    if (!(*request.max_power > 0.0) || !std::isfinite(*request.max_power)) {
      return MakeError(RequestErrorCode::kBadValue, "max-power",
                       "bad max-power: want a finite value > 0 W");
    }
    spec.config.explicit_max_power_physical = *request.max_power;
  }
  if (!from_scenario || request.temp_limit.has_value()) {
    const double temp_limit = request.temp_limit.value_or(38.0);
    if (!std::isfinite(temp_limit)) {
      return MakeError(RequestErrorCode::kBadValue, "temp-limit",
                       "bad temp-limit: want a finite temperature");
    }
    spec.config.temp_limit = temp_limit;
  }
  // Without max-power each package's limit is (temp-limit - ambient) / R. A
  // temp-limit at or below the ambient leaves no power to run under: the
  // throttle would halt every tick and the energy balancer would stop.
  if (!spec.config.explicit_max_power_physical.has_value()) {
    for (std::size_t phys = 0; phys < spec.config.topology.num_physical(); ++phys) {
      const ThermalParams& params = spec.config.cooling.ParamsFor(phys);
      if (!(params.MaxPowerForTemp(spec.config.temp_limit) > 0.0)) {
        return MakeError(RequestErrorCode::kBadValue, "temp-limit",
                         "bad temp-limit: " + FormatValue(spec.config.temp_limit) +
                             " C is not above package " + std::to_string(phys) +
                             "'s ambient of " + FormatValue(params.ambient) +
                             " C, so its power limit would be <= 0 W (raise "
                             "temp-limit or set max-power)");
      }
    }
  }
  if (!from_scenario || request.throttle.has_value()) {
    spec.config.throttling_enabled = request.throttle.value_or(false);
  }
  // No scenario sets skip_ahead; an explicit request value always wins and
  // an unset one keeps the config default (on).
  if (request.skip_ahead.has_value()) {
    spec.config.skip_ahead = *request.skip_ahead;
  }
  // Likewise intra-threads: explicit wins, unset keeps the config default
  // (0 = the package phases on the calling thread). Each worker is an OS
  // thread, so the count takes the same cap as eastool's --threads.
  if (request.intra_threads.has_value()) {
    if (*request.intra_threads > kMaxThreads) {
      return MakeError(RequestErrorCode::kBadValue, "intra-threads",
                       "bad intra-threads: want at most " + std::to_string(kMaxThreads));
    }
    spec.config.intra_run_threads = static_cast<std::size_t>(*request.intra_threads);
  }
  if (!from_scenario || request.seed.has_value()) {
    spec.config.seed = request.seed.value_or(42);
  }
  // Faults resolve after the topology is final so the plan validates against
  // the machine it will actually run on. The literal "none" cancels a
  // scenario's baked-in plan (an empty value can't travel through the text
  // format); unset inherits it.
  if (!from_scenario || request.faults.has_value()) {
    const std::string faults = request.faults.value_or("none");
    spec.config.fault_spec = faults == "none" ? "" : faults;
  }
  if (spec.config.faulted()) {
    std::string fault_error;
    if (!ParseFaultPlan(spec.config.fault_spec, spec.config.topology, &fault_error).has_value()) {
      return MakeError(RequestErrorCode::kBadValue, "faults", "bad faults: " + fault_error);
    }
  }

  // --- policy (resolved purely via the BalancePolicyRegistry) --------------
  if (!from_scenario || request.policy.has_value()) {
    const std::string policy = NormalizePolicyName(request.policy.value_or("energy_aware"));
    if (!BalancePolicyRegistry::Global().Contains(policy)) {
      return MakeError(RequestErrorCode::kUnknownName, "policy",
                       BalancePolicyRegistry::Global().UnknownMessage("policy", policy));
    }
    spec.config.sched = SchedConfigForPolicy(policy);
    resolved.policy = policy;
  } else {
    resolved.policy = spec.config.sched.balancer_name;
  }

  // --- frequency governor ---------------------------------------------------
  if (!from_scenario || request.governor.has_value()) {
    const std::string governor = request.governor.value_or("none");
    if (!FrequencyGovernorRegistry::Global().Contains(governor)) {
      return MakeError(RequestErrorCode::kUnknownName, "governor",
                       FrequencyGovernorRegistry::Global().UnknownMessage("governor", governor));
    }
    spec.config.frequency_governor = governor;
  }
  resolved.governor = spec.config.frequency_governor;

  // --- workload -------------------------------------------------------------
  if (!from_scenario) {
    // Non-scenario requests all draw from the default-model library; the
    // cache shares one immutable build across them.
    std::shared_ptr<const ProgramLibrary> library =
        cache != nullptr ? cache->DefaultLibrary(spec.config.model)
                         : std::make_shared<const ProgramLibrary>(spec.config.model);
    const std::string workload_spec = request.workload.value_or("mixed:3");
    Workload workload;
    if (workload_spec.rfind("trace:", 0) == 0) {
      std::string trace_error;
      if (!LoadTraceWorkload(workload_spec.substr(6), *library, &workload, &trace_error)) {
        return MakeError(RequestErrorCode::kBadValue, "workload",
                         "bad workload trace: " + trace_error);
      }
    } else {
      workload = Workload(ParseWorkloadSpec(workload_spec, *library));
    }
    if (workload.empty()) {
      return MakeError(RequestErrorCode::kBadValue, "workload",
                       "bad workload \"" + workload_spec + "\"");
    }
    workload.Retain(library);
    spec.workload = std::move(workload);
  }

  // --- duration / sweep ------------------------------------------------------
  if (!from_scenario || request.duration_s.has_value()) {
    const double duration_s = request.duration_s.value_or(120.0);
    // !(x > 0) also rejects NaN; the upper bound keeps the tick cast far
    // from Tick overflow (9e12 s ~ 285 millennia of simulated time).
    // Round, don't truncate: a tick count that round-tripped through
    // seconds (e.g. a bench's duration/1000.0) must resolve to exactly that
    // tick count, not one short. A duration that rounds to no tick at all
    // is as empty as 0.
    if (!(duration_s > 0.0) || duration_s > 9.0e12 || std::llround(duration_s * 1000.0) < 1) {
      return MakeError(RequestErrorCode::kBadValue, "duration-s",
                       "bad duration-s: want > 0 (and sane) simulated seconds");
    }
    spec.options.duration_ticks = static_cast<Tick>(std::llround(duration_s * 1000.0));
  }
  if (!from_scenario) {
    spec.options.sample_interval_ticks = 500;
  }

  if (request.runs < 1) {
    return MakeError(RequestErrorCode::kBadValue, "runs", "bad runs: want >= 1");
  }
  if (request.runs > kMaxRuns) {
    return MakeError(RequestErrorCode::kBadValue, "runs",
                     "bad runs: want at most " + std::to_string(kMaxRuns) + " per request");
  }
  // The sweep seeds its runs seed ... seed + runs - 1; a seed past 2^64 - 1
  // would wrap to 0 and repeat the first runs of another sweep.
  constexpr std::uint64_t kLastSeed = std::numeric_limits<std::uint64_t>::max();
  if (request.runs - 1 > kLastSeed - spec.config.seed) {
    return MakeError(RequestErrorCode::kBadValue, "runs",
                     "bad runs: want seed + runs - 1 <= " + std::to_string(kLastSeed));
  }
  resolved.specs = request.runs == 1
                       ? std::vector<ExperimentSpec>{std::move(spec)}
                       : ExperimentRunner::SeedSweep(spec, static_cast<std::size_t>(request.runs));
  return resolved;
}

RunRequest RunRequestForScenario(const std::string& scenario) {
  RunRequest request;
  request.scenario = scenario;
  return request;
}

}  // namespace eas
