// Declarative, seeded fault plans: the data model of the chaos layer.
//
// A FaultPlan is a tick-ordered list of injection events - core offline /
// online, package thermal spike, P-state table clamp - parsed from the
// `faults = <spec>` RunRequest key. The plan is pure data: parsing never
// touches simulation state, so a plan validates against a topology at
// request-resolve time and replays byte-identically from the request file
// (the PR 5 contract). The engine-facing reaction logic (drain, re-place,
// emergency stepdown) lives in src/sim/fault_phase.h, mirroring how
// src/freq holds governors while src/sim holds the FrequencyPhase.
//
// Spec grammar (comma-separated clauses; no spaces required, none emitted):
//
//   off:<cpu>@<tick>                   take logical CPU offline
//   on:<cpu>@<tick>                    bring logical CPU back online
//   spike:<pkg>@<tick>:<degC>:<dur>    add degC to the package die
//                                      temperature and hold a thermal
//                                      emergency for <dur> ticks
//   clamp:<pkg>@<tick>:<floor>:<dur>   clamp the package P-state to at
//                                      least index <floor> for <dur> ticks
//   churn:<n>@<horizon>:<seed>         expand into n seeded offline/online
//                                      pairs over ticks [1, horizon]
//
// `churn` draws every choice from its own eas::Rng(seed) - never from the
// experiment's shared stream - so a chaos schedule is a function of the
// spec text alone and two runs differing only in workload see identical
// fault timings. The literal spec "none" parses to an empty plan; requests
// use it to cancel a scenario's baked-in plan.
//
// Two limits keep every accepted plan runnable: the expanded plan holds at
// most kMaxFaultPlanEvents events (a churn pair counts two), checked before
// a churn clause expands; and every tick a plan implies fits in a Tick, so a
// spike/clamp needs tick + dur <= INT64_MAX and a churn needs its latest
// possible online event, horizon + horizon/4 + 1, to fit.

#ifndef SRC_FAULT_FAULT_PLAN_H_
#define SRC_FAULT_FAULT_PLAN_H_

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "src/base/time.h"
#include "src/topo/cpu_topology.h"

namespace eas {

enum class FaultKind {
  kCpuOffline,   // drain the runqueue, stop selecting/accounting the CPU
  kCpuOnline,    // restore capacity; balancing repopulates the queue
  kThermalSpike, // die temperature jump + timed thermal emergency
  kPStateClamp,  // timed floor on the package frequency domain's P-state
};

struct FaultEvent {
  FaultKind kind = FaultKind::kCpuOffline;
  Tick tick = 0;             // when the event fires
  int cpu = -1;              // kCpuOffline/kCpuOnline: logical CPU
  std::size_t package = 0;   // kThermalSpike/kPStateClamp: physical package
  double delta_c = 0.0;      // kThermalSpike: degrees C added to the die
  std::size_t floor = 0;     // kPStateClamp: minimum P-state index
  Tick duration = 0;         // kThermalSpike/kPStateClamp: ticks held
};

// The most events one expanded plan may hold, summed over its clauses.
inline constexpr std::size_t kMaxFaultPlanEvents = 100'000;

struct FaultPlan {
  // Events in clause/generation order; the engine queues them keyed
  // (tick, position), so same-tick events fire in spec order.
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }
};

// Parses `spec` against `topology` (CPU and package indices must be in
// range, durations >= 1, spike deltas finite, the limits above respected).
// Returns nullopt and fills *error with a diagnostic on a malformed spec -
// the ParseTopologySpec idiom. "none" and the empty string parse to an
// empty plan.
std::optional<FaultPlan> ParseFaultPlan(const std::string& spec, const CpuTopology& topology,
                                        std::string* error);

// The grammar reference printed by `eastool --list-faults`.
std::string FaultPlanGrammar();

}  // namespace eas

#endif  // SRC_FAULT_FAULT_PLAN_H_
