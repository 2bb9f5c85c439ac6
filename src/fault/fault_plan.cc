#include "src/fault/fault_plan.h"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "src/base/rng.h"
#include "src/base/text.h"

namespace eas {
namespace {

std::string TooManyEvents() {
  return "the plan would hold more than " + std::to_string(kMaxFaultPlanEvents) +
         " events (the limit on an expanded plan)";
}

bool Fail(std::string* error, const std::string& clause, const std::string& why) {
  if (error != nullptr) {
    *error = "clause '" + clause + "': " + why;
  }
  return false;
}

// Parses one `off:`/`on:` clause body (`<cpu>@<tick>`) into `plan`.
bool ParseHotplug(const std::string& clause, const std::string& body, FaultKind kind,
                  const CpuTopology& topology, FaultPlan* plan, std::string* error) {
  const std::vector<std::string> at = SplitFields(body, '@');
  std::int64_t cpu = 0;
  std::int64_t tick = 0;
  if (at.size() != 2 || !ParseInt(at[0], &cpu) || !ParseInt(at[1], &tick)) {
    return Fail(error, clause, "expected <cpu>@<tick>");
  }
  if (cpu < 0 || cpu >= static_cast<std::int64_t>(topology.num_logical())) {
    return Fail(error, clause,
                "cpu out of range (topology has " + std::to_string(topology.num_logical()) +
                    " logical CPUs)");
  }
  if (tick < 0) {
    return Fail(error, clause, "tick must be >= 0");
  }
  FaultEvent event;
  event.kind = kind;
  event.tick = tick;
  event.cpu = static_cast<int>(cpu);
  plan->events.push_back(event);
  return true;
}

// Parses one `spike:`/`clamp:` clause body (`<pkg>@<tick>:<arg>:<dur>`).
bool ParsePackageFault(const std::string& clause, const std::string& body, FaultKind kind,
                       const CpuTopology& topology, FaultPlan* plan, std::string* error) {
  const std::vector<std::string> at = SplitFields(body, '@');
  std::int64_t package = 0;
  if (at.size() != 2 || !ParseInt(at[0], &package)) {
    return Fail(error, clause, "expected <pkg>@<tick>:<arg>:<dur>");
  }
  if (package < 0 || package >= static_cast<std::int64_t>(topology.num_physical())) {
    return Fail(error, clause,
                "package out of range (topology has " + std::to_string(topology.num_physical()) +
                    " packages)");
  }
  const std::vector<std::string> rest = SplitFields(at[1], ':');
  std::int64_t tick = 0;
  std::int64_t duration = 0;
  if (rest.size() != 3 || !ParseInt(rest[0], &tick) || !ParseInt(rest[2], &duration)) {
    return Fail(error, clause, "expected <pkg>@<tick>:<arg>:<dur>");
  }
  if (tick < 0) {
    return Fail(error, clause, "tick must be >= 0");
  }
  if (duration < 1) {
    return Fail(error, clause, "duration must be >= 1 tick");
  }
  // The window closes at tick + dur, which must be a representable Tick.
  if (duration > std::numeric_limits<Tick>::max() - tick) {
    return Fail(error, clause, "tick + duration overflows the tick range");
  }
  FaultEvent event;
  event.kind = kind;
  event.tick = tick;
  event.package = static_cast<std::size_t>(package);
  event.duration = duration;
  if (kind == FaultKind::kThermalSpike) {
    if (!ParseFinite(rest[1], &event.delta_c)) {
      return Fail(error, clause, "spike delta must be a finite number of degrees C");
    }
  } else {
    std::int64_t floor = 0;
    if (!ParseInt(rest[1], &floor) || floor < 0) {
      return Fail(error, clause, "clamp floor must be a P-state index >= 0");
    }
    // The floor is re-clamped to the table's deepest state at apply time;
    // the table is not known here (it is a MachineConfig property).
    event.floor = static_cast<std::size_t>(floor);
  }
  plan->events.push_back(event);
  return true;
}

// Expands one `churn:<n>@<horizon>:<seed>` clause into n offline/online
// pairs drawn from a dedicated Rng(seed) - the spec text alone determines
// every cpu and tick, independent of the experiment's shared stream.
bool ParseChurn(const std::string& clause, const std::string& body,
                const CpuTopology& topology, FaultPlan* plan, std::string* error) {
  const std::vector<std::string> at = SplitFields(body, '@');
  std::int64_t count = 0;
  if (at.size() != 2 || !ParseInt(at[0], &count)) {
    return Fail(error, clause, "expected <n>@<horizon>:<seed>");
  }
  const std::vector<std::string> rest = SplitFields(at[1], ':');
  std::int64_t horizon = 0;
  std::int64_t seed = 0;
  if (rest.size() != 2 || !ParseInt(rest[0], &horizon) || !ParseInt(rest[1], &seed)) {
    return Fail(error, clause, "expected <n>@<horizon>:<seed>");
  }
  if (count < 1) {
    return Fail(error, clause, "pair count must be >= 1");
  }
  if (horizon < 2) {
    return Fail(error, clause, "horizon must be >= 2 ticks");
  }
  // The latest online event lands at most at horizon + horizon/4 + 1.
  if (horizon > std::numeric_limits<Tick>::max() - horizon / 4 - 1) {
    return Fail(error, clause, "horizon + horizon/4 + 1 overflows the tick range");
  }
  // Counted before expanding: each pair adds two events.
  if (static_cast<std::uint64_t>(count) > (kMaxFaultPlanEvents - plan->events.size()) / 2) {
    return Fail(error, clause, TooManyEvents());
  }
  Rng rng(static_cast<std::uint64_t>(seed));
  const std::uint64_t logical = topology.num_logical();
  const std::uint64_t max_duration =
      std::max<std::uint64_t>(static_cast<std::uint64_t>(horizon) / 4, 1);
  for (std::int64_t i = 0; i < count; ++i) {
    const int cpu = static_cast<int>(rng.NextBelow(logical));
    const Tick off_tick = 1 + static_cast<Tick>(rng.NextBelow(static_cast<std::uint64_t>(horizon)));
    const Tick duration = 1 + static_cast<Tick>(rng.NextBelow(max_duration));
    FaultEvent off;
    off.kind = FaultKind::kCpuOffline;
    off.tick = off_tick;
    off.cpu = cpu;
    plan->events.push_back(off);
    FaultEvent on;
    on.kind = FaultKind::kCpuOnline;
    on.tick = off_tick + duration;
    on.cpu = cpu;
    plan->events.push_back(on);
  }
  return true;
}

}  // namespace

std::optional<FaultPlan> ParseFaultPlan(const std::string& spec, const CpuTopology& topology,
                                        std::string* error) {
  FaultPlan plan;
  if (spec.empty() || spec == "none") {
    return plan;
  }
  for (const std::string& clause : SplitFields(spec, ',')) {
    if (clause.empty()) {
      if (error != nullptr) {
        *error = "empty clause (stray comma?)";
      }
      return std::nullopt;
    }
    if (plan.events.size() == kMaxFaultPlanEvents) {
      Fail(error, clause, TooManyEvents());
      return std::nullopt;
    }
    const std::size_t colon = clause.find(':');
    if (colon == std::string::npos) {
      Fail(error, clause, "expected <kind>:<args> (kinds: off, on, spike, clamp, churn)");
      return std::nullopt;
    }
    const std::string kind = clause.substr(0, colon);
    const std::string body = clause.substr(colon + 1);
    bool ok = false;
    if (kind == "off") {
      ok = ParseHotplug(clause, body, FaultKind::kCpuOffline, topology, &plan, error);
    } else if (kind == "on") {
      ok = ParseHotplug(clause, body, FaultKind::kCpuOnline, topology, &plan, error);
    } else if (kind == "spike") {
      ok = ParsePackageFault(clause, body, FaultKind::kThermalSpike, topology, &plan, error);
    } else if (kind == "clamp") {
      ok = ParsePackageFault(clause, body, FaultKind::kPStateClamp, topology, &plan, error);
    } else if (kind == "churn") {
      ok = ParseChurn(clause, body, topology, &plan, error);
    } else {
      Fail(error, clause, "unknown kind '" + kind + "' (kinds: off, on, spike, clamp, churn)");
    }
    if (!ok) {
      return std::nullopt;
    }
  }
  return plan;
}

std::string FaultPlanGrammar() {
  return
      "fault spec: comma-separated clauses, validated against the run's topology\n"
      "  off:<cpu>@<tick>                 take logical CPU offline; its runqueue is\n"
      "                                   drained and tasks re-place through the\n"
      "                                   balance machinery (the last online CPU\n"
      "                                   refuses to go offline)\n"
      "  on:<cpu>@<tick>                  bring the CPU back online; balancing\n"
      "                                   repopulates it on its next pass\n"
      "  spike:<pkg>@<tick>:<degC>:<dur>  add degC to the package die temperature\n"
      "                                   and hold a thermal emergency for dur\n"
      "                                   ticks (governed: forced deepest P-state;\n"
      "                                   ungoverned: hlt backstop)\n"
      "  clamp:<pkg>@<tick>:<floor>:<dur> clamp the package P-state to at least\n"
      "                                   index floor for dur ticks\n"
      "  churn:<n>@<horizon>:<seed>       expand into n seeded offline/online pairs\n"
      "                                   over ticks [1, horizon]; the schedule is a\n"
      "                                   function of the spec text alone\n"
      "  none                             the empty plan (cancels a scenario's)\n"
      "limits: a plan expands to at most " + std::to_string(kMaxFaultPlanEvents) +
      " events (a churn pair\n"
      "  counts two); tick + dur must fit in int64, and so must a churn's latest\n"
      "  online event, horizon + horizon/4 + 1\n"
      "example:\n"
      "  --faults churn:10@50000:1337,spike:0@6000:12:2500,clamp:2@10000:3:6000\n";
}

}  // namespace eas
