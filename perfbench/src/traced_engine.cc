#include "src/traced_engine.h"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "src/report.h"
#include "src/sim/accounting.h"
#include "src/sim/invariant_checker.h"
#include "src/sim/simulation_engine.h"

namespace perfbench {

const std::array<const char*, kNumPhases> kPhaseNames = {
    "sim.fault",       "sim.arrivals",   "sim.wake",        "sim.throttle_gate",
    "freq.govern",     "sim.switch_in",  "sim.throttle_account", "sim.execute",
    "counters.sample", "thermal.step",   "sim.lifecycle",   "sched.balance",
    "sim.observers"};

namespace {

// Mean cost of one steady_clock read, measured back to back.
double CalibrateClockNs() {
  constexpr int kReads = 200'000;
  double best = 1e9;
  for (int round = 0; round < 5; ++round) {
    const Clock::time_point start = Clock::now();
    Clock::time_point last = start;
    for (int i = 0; i < kReads; ++i) {
      last = Clock::now();
    }
    best = std::min(best, std::chrono::duration<double, std::nano>(last - start).count() / kReads);
  }
  return best;
}

// Chained phase timing for one run: Lap() closes the span that began at the
// previous read.
class PhaseClock {
 public:
  PhaseClock(PhaseProfile& profile, std::int64_t sample_every)
      : profile_(profile), sample_every_(sample_every) {}

  void BeginTick(std::int64_t tick) {
    tick_ = tick;
    sampled_ = tick % sample_every_ == 0;
    last_ = Clock::now();
    tick_start_ = last_;
    laps_in_tick_ = 0;
    if (sampled_) {
      tick_span_ = static_cast<std::int64_t>(profile_.spans.size());
      profile_.spans.push_back(Span{-1, NanosSinceEpoch(last_), 0, -1, tick, -1});
    }
  }

  // Closes the span of `phase` and returns its raw duration in ns.
  double Lap(Phase phase, int package = -1) {
    const Clock::time_point now = Clock::now();
    const double raw = std::chrono::duration<double, std::nano>(now - last_).count();
    raw_[phase] += raw;
    ++laps_[phase];
    ++laps_in_tick_;
    if (sampled_) {
      profile_.spans.push_back(
          Span{phase, NanosSinceEpoch(last_), NanosSinceEpoch(now), tick_span_, tick_, package});
    }
    last_ = now;
    return raw;
  }

  void EndTick() {
    raw_tick_ += std::chrono::duration<double, std::nano>(last_ - tick_start_).count();
    tick_laps_ += laps_in_tick_;
    if (sampled_) {
      profile_.spans[static_cast<std::size_t>(tick_span_)].end_ns = NanosSinceEpoch(last_);
    }
  }

  // Moves the totals into the profile with `clock_ns` per read subtracted.
  void Finish(double clock_ns) {
    for (int p = 0; p < kNumPhases; ++p) {
      profile_.ns[p] = std::max(0.0, raw_[p] - static_cast<double>(laps_[p]) * clock_ns);
    }
    profile_.tick_ns = std::max(0.0, raw_tick_ - static_cast<double>(tick_laps_) * clock_ns);
  }

 private:
  PhaseProfile& profile_;
  std::int64_t sample_every_;
  std::int64_t tick_ = 0;
  bool sampled_ = false;
  Clock::time_point last_;
  Clock::time_point tick_start_;
  std::int64_t tick_span_ = -1;
  std::int64_t laps_in_tick_ = 0;
  std::array<double, kNumPhases> raw_{};
  std::array<std::int64_t, kNumPhases> laps_{};
  double raw_tick_ = 0.0;
  std::int64_t tick_laps_ = 0;
};

}  // namespace

std::string StateDigest(const eas::SimulationState& state) {
  Digest digest;
  digest.Mix(state.TotalWorkDone());
  digest.Mix(state.TotalTaskEnergy());
  digest.Mix(state.migration_count());
  digest.Mix(static_cast<std::int64_t>(state.now()));
  for (std::size_t phys = 0; phys < state.num_physical(); ++phys) {
    digest.Mix(state.Temperature(phys));
    digest.Mix(state.TruePower(phys));
  }
  return digest.Hex();
}

PhaseProfile RunTracedEngine(const eas::ExperimentSpec& spec, int sampled_ticks) {
  PhaseProfile profile;
  profile.clock_ns = CalibrateClockNs();
  const eas::MachineConfig& config = spec.config;
  const eas::Tick duration = spec.options.duration_ticks;
  PhaseClock clock(profile, std::max<std::int64_t>(1, duration / std::max(1, sampled_ticks)));

  eas::SimulationState state(config);
  eas::SchedTick sched_tick;
  eas::FaultPhase fault;
  eas::ThrottleGate throttle_gate;
  eas::FrequencyPhase frequency;
  eas::CounterSampler counter_sampler;
  eas::ThermalStepper thermal_stepper;
  eas::BalancePhase balance(config.sched);

  // Experiment::Run's set-up: the initial spawn set now, later arrivals
  // through the state's arrival queue.
  const std::vector<eas::TaskArrival>& arrivals = spec.workload.arrivals();
  std::vector<eas::Task*> spawned;
  std::size_t next = 0;
  const Clock::time_point spawn_start = Clock::now();
  while (next < arrivals.size() && arrivals[next].tick <= 0) {
    spawned.push_back(state.Spawn(*arrivals[next].program, arrivals[next].nice));
    ++next;
  }
  profile.spawn_ns = std::chrono::duration<double, std::nano>(Clock::now() - spawn_start).count();
  profile.spawned = static_cast<std::int64_t>(spawned.size());
  for (; next < arrivals.size(); ++next) {
    state.ScheduleArrival(*arrivals[next].program, arrivals[next].nice, arrivals[next].tick);
  }
  eas::Accounting::Options accounting_options;
  accounting_options.sample_interval_ticks = spec.options.sample_interval_ticks;
  eas::Accounting accounting(state, accounting_options);
  if (spec.options.record_task_cpu) {
    for (const eas::Task* task : spawned) {
      accounting.TraceTask(task);
    }
  }
  std::vector<eas::TickObserver*> observers;
  std::unique_ptr<eas::InvariantChecker> checker;
  if (config.faulted()) {
    checker = std::make_unique<eas::InvariantChecker>(state);
    observers.push_back(checker.get());
  }
  observers.push_back(&accounting);

  const std::size_t physical = state.num_physical();
  const bool sharded = config.intra_run_threads != 0;
  std::vector<int> active;
  std::vector<std::vector<int>> package_active(physical);
  std::vector<eas::EventVector> events;

  // The package-local phases 2a-2g of one package, in engine order.
  auto package_phases = [&](std::size_t phys, std::vector<int>& act) {
    const int pkg = static_cast<int>(phys);
    const bool throttled = throttle_gate.GatePackage(state, phys);
    clock.Lap(kGate, pkg);
    frequency.GovernPackage(state, phys, throttled);
    clock.Lap(kGovern, pkg);
    sched_tick.SwitchInPackage(state, phys);
    clock.Lap(kSwitchIn, pkg);
    throttle_gate.AccountCpuTicks(state, phys, throttled);
    clock.Lap(kAccount, pkg);
    sched_tick.SelectActive(state, phys, throttled, act);
    sched_tick.ExecuteActive(state, act, events, state.freq_domain(phys).frequency_multiplier());
    clock.Lap(kExecute, pkg);
    profile.task_ticks += static_cast<std::int64_t>(act.size());
    const double true_dynamic = counter_sampler.Sample(state, phys, act, events);
    clock.Lap(kSample, pkg);
    thermal_stepper.StepPackage(state, phys, act.size(), true_dynamic);
    clock.Lap(kThermal, pkg);
  };
  auto lifecycle = [&](std::size_t phys, const std::vector<int>& act) {
    for (int cpu : act) {
      sched_tick.HandleLifecycle(state, cpu);
    }
    clock.Lap(kLifecycle, static_cast<int>(phys));
  };

  const Clock::time_point run_start = Clock::now();
  for (eas::Tick t = 0; t < duration; ++t) {
    clock.BeginTick(state.now());
    if (config.faulted()) {
      fault.Run(state);
      clock.Lap(kFault);
    }
    const std::size_t tasks_before = state.tasks().size();
    sched_tick.SpawnArrivals(state);
    const double arrivals_ns = clock.Lap(kArrivals);
    const std::size_t arrived = state.tasks().size() - tasks_before;
    if (arrived > 0) {
      profile.spawned += static_cast<std::int64_t>(arrived);
      profile.spawn_ns += arrivals_ns;
    }
    const std::size_t pending_wakes = state.wake_queue().size();
    sched_tick.WakeSleepers(state);
    clock.Lap(kWake);
    profile.wakeups += static_cast<std::int64_t>(pending_wakes - state.wake_queue().size());

    if (sharded) {
      // Sharded order: every package's local phases, then lifecycle in
      // package order (run here on the caller thread).
      frequency.EnsureReady(state);
      for (std::size_t phys = 0; phys < physical; ++phys) {
        package_phases(phys, package_active[phys]);
      }
      for (std::size_t phys = 0; phys < physical; ++phys) {
        lifecycle(phys, package_active[phys]);
      }
    } else {
      for (std::size_t phys = 0; phys < physical; ++phys) {
        package_phases(phys, active);
        lifecycle(phys, active);
      }
    }

    balance.Run(state);
    clock.Lap(kBalance);
    state.AdvanceTick();
    for (eas::TickObserver* observer : observers) {
      observer->OnTick(state);
    }
    clock.Lap(kObservers);
    clock.EndTick();
  }
  profile.run_seconds = SecondsSince(run_start);
  clock.Finish(profile.clock_ns);

  profile.ticks = duration;
  profile.completions = state.TotalCompletions();
  profile.migrations = state.migration_count();
  profile.state_digest = StateDigest(state);
  return profile;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return false;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(file,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"parent\": %lld, \"tick\": %lld, \"package\": %d}\n",
                 i, s.name < 0 ? "sim.tick" : kPhaseNames[static_cast<std::size_t>(s.name)],
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent), static_cast<long long>(s.tick), s.package);
  }
  return std::fclose(file) == 0;
}

}  // namespace perfbench
