// The traced run of an engine workload: benchmark code drives the engine's
// public phase components in SimulationEngine's documented order and times
// every call from outside. Nothing inside the simulator is instrumented.
//
// Each phase call is bracketed by chained steady_clock reads (the end of one
// span is the start of the next), so a span costs one clock read; the
// calibrated cost of that read is subtracted from every phase total. Every
// tick feeds the totals; full spans (name, start, end, parent, tick) are kept
// in memory only for an evenly spread sample of ticks and written out as
// JSONL when the run ends.

#ifndef PERFBENCH_SRC_TRACED_ENGINE_H_
#define PERFBENCH_SRC_TRACED_ENGINE_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/experiment_runner.h"

namespace perfbench {

enum Phase : int {
  kFault,
  kArrivals,
  kWake,
  kGate,         // 2a ThrottleGate::GatePackage
  kGovern,       // 2b FrequencyPhase::GovernPackage
  kSwitchIn,     // 2c SchedTick::SwitchInPackage
  kAccount,      // 2d ThrottleGate::AccountCpuTicks
  kExecute,      // 2e SchedTick::SelectActive + ExecuteActive
  kSample,       // 2f CounterSampler::Sample
  kThermal,      // 2g ThermalStepper::StepPackage
  kLifecycle,    // 2h SchedTick::HandleLifecycle over the active CPUs
  kBalance,      // 3  BalancePhase::Run
  kObservers,    // 4  Accounting (+ InvariantChecker on faulted configs)
  kNumPhases
};

// Span names, indexed by Phase.
extern const std::array<const char*, kNumPhases> kPhaseNames;

struct Span {
  int name = 0;          // Phase, or -1 for the tick itself
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  // index into the span list; -1 for a tick
  std::int64_t tick = 0;     // the shared id: every span of one tick
  int package = -1;          // package-local phases only
};

struct PhaseProfile {
  // Host ns per phase summed over the run, clock cost subtracted.
  std::array<double, kNumPhases> ns{};
  double tick_ns = 0.0;       // all ticks, clock cost subtracted
  double spawn_ns = 0.0;      // initial spawns + arrival ticks that spawned
  double run_seconds = 0.0;   // wall time of the tick loop, clock reads included
  double clock_ns = 0.0;      // calibrated cost of one steady_clock read
  std::int64_t ticks = 0;
  std::int64_t wakeups = 0;
  std::int64_t task_ticks = 0;
  std::int64_t spawned = 0;
  std::int64_t completions = 0;
  std::int64_t migrations = 0;
  std::string state_digest;
  std::vector<Span> spans;
};

// Runs `spec` (as Experiment::Run would: initial spawns, timed arrivals,
// Accounting, and the InvariantChecker on faulted configs) tick by tick
// through the phase components. `sampled_ticks` bounds how many ticks keep
// full spans.
PhaseProfile RunTracedEngine(const eas::ExperimentSpec& spec, int sampled_ticks);

// Digest of the end state the traced and untraced runs must agree on: work,
// task energy, migrations, the clock, and every package's temperature and
// true power, by exact bit pattern.
std::string StateDigest(const eas::SimulationState& state);

// Writes `spans` as JSONL (one object per span).
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACED_ENGINE_H_
