#include "src/sim/experiment.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

#include "src/sim/accounting.h"
#include "src/sim/invariant_checker.h"

namespace eas {

double RunResult::AverageThrottledFraction() const {
  if (throttled_fraction.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (double f : throttled_fraction) {
    sum += f;
  }
  return sum / static_cast<double>(throttled_fraction.size());
}

double RunResult::AverageFrequencyMultiplier() const {
  if (average_frequency.empty()) {
    return 1.0;
  }
  double sum = 0.0;
  for (double f : average_frequency) {
    sum += f;
  }
  return sum / static_cast<double>(average_frequency.size());
}

double RunResult::MaxThermalSpreadAfter(Tick tick) const {
  // Spread of the thermal power curves, evaluated at each sample time past
  // `tick` (lets tests skip the warm-up transient).
  double max_spread = 0.0;
  if (thermal_power.size() == 0) {
    return 0.0;
  }
  const Series& first = thermal_power.at(0);
  for (std::size_t i = 0; i < first.size(); ++i) {
    const Tick t = first.tick_at(i);
    if (t < tick) {
      continue;
    }
    max_spread = std::max(max_spread, thermal_power.SpreadAt(t));
  }
  return max_spread;
}

Experiment::Experiment(const MachineConfig& config, const Options& options)
    : options_(options), machine_(config) {}

RunResult Experiment::Run(const Workload& workload) {
  SimulationState& state = machine_.state();
  SimulationEngine& engine = machine_.engine();
  if (state.now() != 0 || !state.tasks().empty()) {
    throw std::logic_error("Experiment::Run needs a fresh machine (tick 0, no tasks)");
  }
  RunResult result;
  const std::vector<TaskArrival>& arrivals = workload.arrivals();

  // Initial spawn set: everything that arrives at or before the run start.
  std::vector<Task*> spawned;
  std::size_t next = 0;
  while (next < arrivals.size() && arrivals[next].tick <= 0) {
    spawned.push_back(state.Spawn(*arrivals[next].program, arrivals[next].nice));
    ++next;
  }

  // Later arrivals go through the engine's event queue: they spawn at the
  // start of their tick, before that tick's wakeups, which is exactly when
  // the chunked stop-and-spawn loop this replaced injected them. An arrival
  // at or past the end tick never spawns (no tick starts at `now` >= the
  // duration), matching the old loop's cutoff.
  for (; next < arrivals.size(); ++next) {
    state.ScheduleArrival(*arrivals[next].program, arrivals[next].nice, arrivals[next].tick);
  }

  Accounting::Options accounting_options;
  accounting_options.sample_interval_ticks = options_.sample_interval_ticks;
  Accounting accounting(state, accounting_options);
  if (options_.record_task_cpu) {
    for (const Task* task : spawned) {
      accounting.TraceTask(task);
    }
  }

  // Faulted runs carry the invariant checker for their whole duration: a
  // chaos schedule that loses a task or unbalances a ledger throws out of
  // Run instead of producing silently-wrong records.
  std::unique_ptr<InvariantChecker> checker;
  const MachineConfig& config = state.config();
  if (config.faulted()) {
    checker = std::make_unique<InvariantChecker>(state);
    engine.AddObserver(checker.get());
  }

  engine.AddObserver(&accounting);
  machine_.Run(options_.duration_ticks);
  engine.RemoveObserver(&accounting);
  if (checker != nullptr) {
    engine.RemoveObserver(checker.get());
  }

  result.thermal_power = std::move(accounting.thermal_power());
  result.temperature = std::move(accounting.temperature());
  result.task_cpu = std::move(accounting.task_cpu());
  result.frequency = std::move(accounting.frequency());

  result.migrations = state.migration_count();
  result.completions = state.TotalCompletions();
  result.work_done_ticks = state.TotalWorkDone();
  result.duration_seconds = TicksToSeconds(options_.duration_ticks);
  const CpuTopology& topology = config.topology;
  for (std::size_t cpu = 0; cpu < state.num_cpus(); ++cpu) {
    const ThrottleController& logical = state.throttle(static_cast<int>(cpu));
    if (logical.demand_ticks() > 0) {
      result.throttled_fraction.push_back(logical.ThrottledFraction());
    } else {
      // Zero runnable demand the whole run: the per-logical count is 0/N by
      // construction, which would hide the package halt entirely. Report the
      // package's halt fraction instead, consistent with what the hlt gate
      // actually did to this CPU.
      const std::size_t phys = topology.PhysicalOf(static_cast<int>(cpu));
      result.throttled_fraction.push_back(state.package_throttle(phys).ThrottledFraction());
    }
  }
  if (config.governed()) {
    for (std::size_t cpu = 0; cpu < state.num_cpus(); ++cpu) {
      const FrequencyDomain& domain = state.freq_domain(topology.PhysicalOf(static_cast<int>(cpu)));
      std::vector<double> residency;
      residency.reserve(domain.table().size());
      for (std::size_t p = 0; p < domain.table().size(); ++p) {
        residency.push_back(domain.ResidencyFraction(p));
      }
      result.pstate_residency.push_back(std::move(residency));
      result.average_frequency.push_back(domain.AverageFrequency());
    }
  }
  if (config.faulted()) {
    result.faults_fired = state.faults_fired();
    result.offline_cpu_ticks = state.offline_cpu_ticks();
  }
  return result;
}

double ThroughputIncrease(const RunResult& baseline, const RunResult& test) {
  const double base = baseline.Throughput();
  if (base <= 0.0) {
    return 0.0;
  }
  return (test.Throughput() - base) / base;
}

}  // namespace eas
