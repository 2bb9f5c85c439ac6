// paper-dense, cluster-1024 and sparse-idle: requests run offline, single-
// threaded on the caller thread, the way `eastool --request` runs them
// (parse, resolve, Experiment::Run, JsonlRecordLine).

#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <stdexcept>

#include "src/api/result_sink.h"
#include "src/api/run_request.h"
#include "src/base/rng.h"
#include "src/sim/experiment.h"
#include "src/sim/scenario_cache.h"
#include "src/traced_engine.h"
#include "src/workloads.h"

namespace perfbench {
namespace {

constexpr int kSampledTicks = 32;
// Each timed run is cut into this many windows of equal simulated work.
// Finer windows let the fastest-run filter keep short fast stretches.
constexpr eas::Tick kWindows = 1000;
// paper-dense's simulated length: a tenth of the scenario's 900 s, so that a
// run takes about 0.1 s and each window is timed in a few hundred runs per
// invocation. One fast stretch of the host then covers every window.
constexpr double kDenseSeconds = 90.0;
// sparse-idle's simulated length: long enough that one run is a few tenths
// of a second with skip-ahead, short enough that the untimed skip-ahead =
// off check stays a few seconds.
constexpr double kSparseSeconds = 3600.0;

constexpr eas::Tick kNever = std::numeric_limits<eas::Tick>::max();

// Stamps host time at the first completed tick or skipped span (the end of
// set-up) and then at every window edge: the first OnTick at or past each
// multiple of `window` ticks. Runs of one request are bit-identical, so
// edge i falls on the same tick in every run and window i holds the same
// simulated work. Never bounds a skip-ahead span.
class RunClock : public eas::TickObserver {
 public:
  explicit RunClock(eas::Tick window) : window_(std::max<eas::Tick>(1, window)) {}

  void OnTick(const eas::SimulationState& state) override {
    if (state.now() < next_edge_) {
      return;
    }
    ticks_.push_back(state.now());
    at_.push_back(Clock::now());
    next_edge_ = (state.now() / window_ + 1) * window_;
  }
  eas::Tick NextObservableTick(eas::Tick /*now*/) const override { return kNever; }

  const std::vector<eas::Tick>& ticks() const { return ticks_; }
  const std::vector<Clock::time_point>& at() const { return at_; }

 private:
  eas::Tick window_;
  eas::Tick next_edge_ = 0;
  std::vector<eas::Tick> ticks_;
  std::vector<Clock::time_point> at_;
};

// The skip-ahead instrument: times the host gap between consecutive OnTick
// calls and counts the ticks each gap covered. A gap of more than one tick
// is one quiescent span the engine advanced in bulk.
class SkipGapObserver : public eas::TickObserver {
 public:
  void OnTick(const eas::SimulationState& state) override {
    const Clock::time_point now = Clock::now();
    if (started_) {
      const eas::Tick covered = state.now() - last_tick_;
      const double ns = std::chrono::duration<double, std::nano>(now - last_).count();
      if (covered > 1) {
        ++spans_;
        span_ticks_ += covered;
        span_ns_ += ns;
      } else {
        single_ticks_ += covered;
        single_ns_ += ns;
      }
    }
    started_ = true;
    last_ = now;
    last_tick_ = state.now();
  }
  eas::Tick NextObservableTick(eas::Tick /*now*/) const override { return kNever; }

  std::int64_t spans() const { return spans_; }
  double TickFraction() const {
    const double total = static_cast<double>(span_ticks_ + single_ticks_);
    return total > 0 ? static_cast<double>(span_ticks_) / total : 0.0;
  }
  double NsPerSpan() const { return spans_ > 0 ? span_ns_ / static_cast<double>(spans_) : 0.0; }
  double NsPerSingleTick() const {
    return single_ticks_ > 0 ? single_ns_ / static_cast<double>(single_ticks_) : 0.0;
  }

 private:
  bool started_ = false;
  Clock::time_point last_;
  eas::Tick last_tick_ = 0;
  std::int64_t spans_ = 0;
  eas::Tick span_ticks_ = 0;
  eas::Tick single_ticks_ = 0;
  double span_ns_ = 0.0;
  double single_ns_ = 0.0;
};

// sparse-idle's tasks: ~12-tick bursts separated by ~6000 ticks of sleep,
// so the machine is quiescent on ~99% of ticks. The seed picks each task's
// burst power (30-40 W), which leaves the amount of work alone.
eas::Workload CronWorkload(const eas::EnergyModel& model, std::uint64_t seed) {
  eas::Rng rng(seed);
  eas::EventRates signature{};
  signature.fill(1.0);
  eas::Workload workload;
  for (int i = 0; i < 4; ++i) {
    eas::Phase burst;
    burst.rates = model.RatesForTargetPower(signature, rng.Uniform(30.0, 40.0));
    burst.mean_duration = 12;
    burst.duration_jitter = 0.1;
    burst.mean_sleep_after = 6'000;
    burst.rate_noise = 0.02;
    const eas::Program* program = workload.Own(std::make_unique<eas::Program>(
        "cron" + std::to_string(i), 0xc407 + static_cast<eas::BinaryId>(i),
        std::vector<eas::Phase>{burst}, /*total_work_ticks=*/0));
    workload.Add(*program);
  }
  return workload;
}

// Parse + resolve (+ the benchmark-built programs for sparse-idle).
eas::ResolvedRequest Resolve(const std::string& text, const Args& args,
                             eas::ScenarioCache* cache = nullptr) {
  auto parsed = eas::ParseRunRequest(text);
  if (!parsed.ok()) {
    throw std::runtime_error("parse: " + parsed.error().Render());
  }
  auto resolved = eas::ResolveRunRequest(*parsed, cache);
  if (!resolved.ok()) {
    throw std::runtime_error("resolve: " + resolved.error().Render());
  }
  if (resolved->specs.size() != 1) {
    throw std::runtime_error("request must resolve to exactly one run");
  }
  if (args.workload == "sparse-idle") {
    eas::ExperimentSpec& spec = resolved->specs.front();
    spec.workload = CronWorkload(spec.config.model, args.seed);
  }
  return std::move(*resolved);
}

struct EngineRun {
  bool ok = false;
  std::string error;
  double setup_s = 0.0;   // request text -> first tick
  double run_s = 0.0;     // first tick -> last tick
  double finish_s = 0.0;  // last tick -> record line
  eas::Tick run_ticks = 0;
  std::vector<eas::Tick> edge_ticks;  // RunClock edges
  std::vector<double> window_s;       // host time between consecutive edges
  std::string record_digest;
  std::string state_digest;
};

enum class RunMode { kTimed, kSkipAheadOff };

// One request, text to record. kSkipAheadOff runs the same request with
// skip-ahead disabled (the record must not change). `extra` is attached to
// the engine for the run; the record is moved to `keep` when given.
EngineRun RunOnce(const std::string& text, const Args& args, RunMode mode,
                  eas::TickObserver* extra = nullptr, eas::RunRecord* keep = nullptr) {
  EngineRun run;
  try {
    const Clock::time_point start = Clock::now();
    eas::ResolvedRequest resolved = Resolve(text, args);
    eas::ExperimentSpec& spec = resolved.specs.front();
    eas::MachineConfig config = spec.config;
    eas::Experiment::Options options = spec.options;
    if (mode == RunMode::kSkipAheadOff) {
      config.skip_ahead = false;
    }
    eas::Experiment experiment(config, options);
    RunClock clock(options.duration_ticks / kWindows);
    experiment.machine().engine().AddObserver(&clock);
    if (extra != nullptr) {
      experiment.machine().engine().AddObserver(extra);
    }
    eas::RunResult result = experiment.Run(spec.workload);
    if (clock.ticks().empty()) {
      throw std::runtime_error("the run completed no tick");
    }
    run.state_digest = StateDigest(experiment.machine().state());

    eas::RunRecord record;
    record.request = resolved.request;
    record.spec = std::move(spec);
    record.result = std::move(result);
    const std::string line = eas::JsonlRecordLine(record);
    const Clock::time_point done = Clock::now();

    const std::vector<Clock::time_point>& at = clock.at();
    run.setup_s = Seconds(start, at.front());
    run.run_s = Seconds(at.front(), at.back());
    run.finish_s = Seconds(at.back(), done);
    run.run_ticks = clock.ticks().back() - clock.ticks().front();
    run.edge_ticks = clock.ticks();
    for (std::size_t i = 1; i < at.size(); ++i) {
      run.window_s.push_back(Seconds(at[i - 1], at[i]));
    }
    run.record_digest = HexDigest(line);
    run.ok = true;
    if (keep != nullptr) {
      *keep = std::move(record);
    }
  } catch (const std::exception& e) {
    run.error = e.what();
  }
  return run;
}

// Holds the first successful run's digests; later runs must match them.
class DigestCheck {
 public:
  DigestCheck(Report& report, std::string workload)
      : report_(report), workload_(std::move(workload)) {}

  // Counts `run` as one attempted operation, failed if it threw or its
  // output differs from the reference.
  bool Check(const EngineRun& run, const std::string& what) {
    if (!run.ok) {
      report_.Attempt(1, false);
      report_.Mismatch(workload_ + " " + what + " threw: " + run.error);
      return false;
    }
    if (reference_.empty()) {
      reference_ = run.record_digest;
      state_ = run.state_digest;
      Note("record digest", run.record_digest);
      Note("state digest", run.state_digest);
    }
    const bool same = run.record_digest == reference_ && run.state_digest == state_;
    report_.Attempt(1, same);
    if (!same) {
      report_.Mismatch(workload_ + " " + what + " differs: record " + run.record_digest +
                       " state " + run.state_digest + " vs " + reference_ + " / " + state_);
    }
    return same;
  }

  const std::string& state() const { return state_; }

 private:
  Report& report_;
  std::string workload_;
  std::string reference_;
  std::string state_;
};

// Median host ns of `fn` over at least `min_reps` calls and ~`budget_s`.
template <typename Fn>
double MedianNs(Fn&& fn, int min_reps, double budget_s) {
  std::vector<double> samples;
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(samples.size()) < min_reps || SecondsSince(start) < budget_s) {
    const Clock::time_point t0 = Clock::now();
    fn();
    samples.push_back(std::chrono::duration<double, std::nano>(Clock::now() - t0).count());
    if (samples.size() >= 100'000) {
      break;
    }
  }
  return Median(samples);
}

// api.parse / api.resolve (cold) / api.resolve_cached / api.jsonl for one
// request text and the record its run rendered.
void MeasureApiLayer(const std::string& text, const Args& args, const eas::RunRecord& record,
                     Report& report) {
  const double parse_ns = MedianNs([&] { (void)eas::ParseRunRequest(text); }, 20, 0.05);
  const double resolve_ns = MedianNs([&] { (void)Resolve(text, args); }, 3, 0.3);
  eas::ScenarioCache cache;
  (void)Resolve(text, args, &cache);
  const double cached_ns = MedianNs([&] { (void)Resolve(text, args, &cache); }, 3, 0.3);
  const double jsonl_ns = MedianNs([&] { (void)eas::JsonlRecordLine(record); }, 20, 0.05);

  report.Add("api.parse.ns", parse_ns, "ns");
  report.Add("api.resolve.ns", resolve_ns, "ns");
  report.Add("api.resolve_cached.ns", cached_ns, "ns");
  report.Add("api.jsonl.ns", jsonl_ns, "ns");
}

// The run phase's host time with interference from other processes on the
// host filtered out. Every timed run of one request does bit-identical
// simulated work window by window, so the fastest run of each window is
// that window's cost; their sum is the run's.
class BestWindows {
 public:
  // False when `run`'s windows do not line up with the first run's (the
  // runs did not simulate the same thing).
  bool Add(const EngineRun& run) {
    if (best_.empty()) {
      ticks_ = run.edge_ticks;
      best_ = run.window_s;
      return true;
    }
    if (run.edge_ticks != ticks_) {
      return false;
    }
    for (std::size_t i = 0; i < best_.size(); ++i) {
      best_[i] = std::min(best_[i], run.window_s[i]);
    }
    return true;
  }

  double seconds() const {
    double total = 0.0;
    for (double s : best_) {
      total += s;
    }
    return total;
  }
  eas::Tick ticks() const { return ticks_.empty() ? 0 : ticks_.back() - ticks_.front(); }

 private:
  std::vector<eas::Tick> ticks_;
  std::vector<double> best_;
};

void RunUntraced(const std::string& text, const Args& args, Report& report) {
  DigestCheck check(report, args.workload);
  BestWindows windows;
  std::vector<double> outside_run_s;  // each run's set-up plus rendering
  // Each run's set-up (request text to first tick). setup_s is the fastest,
  // the same filter the run windows get: set-up allocates the machine
  // afresh, and on a slow stretch of the host it read up to 1.7x slower.
  std::vector<double> setup_s;
  double raw_run_s = 0.0;
  std::int64_t raw_ticks = 0;
  std::int64_t failed = 0;
  CpuRotation cpus;

  const Clock::time_point start = Clock::now();
  do {
    cpus.Next();
    EngineRun run = RunOnce(text, args, RunMode::kTimed);
    if (check.Check(run, "run")) {
      if (!windows.Add(run)) {
        report.Mismatch(args.workload + " run ticked a different schedule");
      }
      raw_run_s += run.run_s;
      raw_ticks += run.run_ticks;
      outside_run_s.push_back(run.setup_s + run.finish_s);
      setup_s.push_back(run.setup_s);
    } else {
      ++failed;
    }
  } while (SecondsSince(start) < args.seconds);
  const double measured_s = SecondsSince(start);

  // A run's latency is its own set-up and record rendering plus the
  // filtered run phase; a failed run is over any limit.
  const double run_s = windows.seconds();
  std::vector<double> latency_ms;
  double busy_s = 0.0;
  for (double outside_s : outside_run_s) {
    latency_ms.push_back((outside_s + run_s) * 1e3);
    busy_s += outside_s + run_s;
  }
  latency_ms.insert(latency_ms.end(), static_cast<std::size_t>(failed),
                    std::numeric_limits<double>::infinity());
  const std::int64_t completed = static_cast<std::int64_t>(outside_run_s.size());


  if (args.workload == "sparse-idle") {
    // Skip-ahead must be bit-neutral: the same request ticked one by one
    // renders the same record and reaches the same state. Untimed.
    const bool same = check.Check(RunOnce(text, args, RunMode::kSkipAheadOff),
                                  "with skip-ahead = off");
    Note("skip-ahead = off", same ? "same record and state" : "DIFFERS");
  }

  Note("runs completed", std::to_string(completed) + " in " + std::to_string(measured_s) +
                             " s, rotated over " + std::to_string(cpus.cpus()) + " CPUs");
  Note("unfiltered ticks/s (all runs)",
       std::to_string(raw_run_s > 0 ? static_cast<double>(raw_ticks) / raw_run_s : 0.0));
  Note("latency samples", std::to_string(latency_ms.size()));
  Note("set-up per run", "min " + std::to_string(Percentile(setup_s, 0.0)) + " s, median " +
                             std::to_string(Median(setup_s)) + " s, max " +
                             std::to_string(Percentile(setup_s, 1.0)) + " s");
  report.Add("ticks_per_s", run_s > 0 ? static_cast<double>(windows.ticks()) / run_s : 0.0,
             "ticks/s");
  report.Add("setup_s", Percentile(setup_s, 0.0), "s");
  report.Add("peak_rss_mb", PeakRssMb(), "MB");
  report.Add("requests_per_s", busy_s > 0 ? static_cast<double>(completed) / busy_s : 0.0,
             "req/s");
  report.Add("latency_p50_ms", Percentile(latency_ms, 0.5), "ms");
  report.Add("latency_p99_ms", Percentile(latency_ms, 0.99), "ms");
}

void RunTraced(const std::string& text, const Args& args, Report& report) {
  DigestCheck check(report, args.workload);
  eas::RunRecord record;
  const EngineRun untraced = RunOnce(text, args, RunMode::kTimed, nullptr, &record);
  if (!check.Check(untraced, "untraced run")) {
    return;
  }
  const double untraced_tps = static_cast<double>(untraced.run_ticks) / untraced.run_s;

  SkipGapObserver gaps;
  const EngineRun observed = RunOnce(text, args, RunMode::kTimed, &gaps);
  check.Check(observed, "skip-observed run");
  report.Add("sim.skip.tick_fraction", gaps.TickFraction(), "ratio");
  report.Add("sim.skip.spans", static_cast<double>(gaps.spans()), "count");
  report.Add("sim.skip.ns_per_span", gaps.NsPerSpan(), "ns");

  double traced_tps = observed.ok ? static_cast<double>(observed.run_ticks) / observed.run_s : 0.0;
  if (args.workload == "sparse-idle") {
    // The gap observer is the whole trace here: per-tick phases are almost
    // never run, so a full tick's cost is the mean single-tick gap.
    report.Add("sim.tick.ns", gaps.NsPerSingleTick(), "ns");
  } else {
    eas::ResolvedRequest resolved = Resolve(text, args);
    const PhaseProfile profile = RunTracedEngine(resolved.specs.front(), kSampledTicks);
    const bool identical = profile.state_digest == check.state();
    report.Attempt(1, identical);
    if (!identical) {
      report.Mismatch(args.workload + " traced run diverged: state " + profile.state_digest +
                      " vs untraced " + check.state());
    }
    Note("traced state digest", profile.state_digest + (identical ? " (identical)" : " (DIFFERS)"));
    Note("clock read ns (subtracted per span)", std::to_string(profile.clock_ns));
    traced_tps = static_cast<double>(profile.ticks) / profile.run_seconds;

    const double ticks = static_cast<double>(profile.ticks);
    auto per_tick = [&](Phase phase) { return profile.ns[phase] / ticks; };
    report.Add("sim.tick.ns", profile.tick_ns / ticks, "ns");
    report.Add("sim.arrivals.ns", per_tick(kArrivals), "ns");
    report.Add("sim.wake.ns", per_tick(kWake), "ns");
    report.Add("sim.wakeups", static_cast<double>(profile.wakeups), "count");
    report.Add("core.spawn.ns_per_task",
               profile.spawned > 0 ? profile.spawn_ns / static_cast<double>(profile.spawned) : 0.0,
               "ns");
    report.Add("sim.throttle_gate.ns", (profile.ns[kGate] + profile.ns[kAccount]) / ticks, "ns");
    report.Add("freq.govern.ns", per_tick(kGovern), "ns");
    report.Add("sim.switch_in.ns", per_tick(kSwitchIn), "ns");
    report.Add("sim.execute.ns_per_task_tick",
               profile.task_ticks > 0
                   ? profile.ns[kExecute] / static_cast<double>(profile.task_ticks)
                   : 0.0,
               "ns");
    report.Add("sim.task_ticks", static_cast<double>(profile.task_ticks), "count");
    report.Add("counters.sample.ns", per_tick(kSample), "ns");
    report.Add("thermal.step.ns", per_tick(kThermal), "ns");
    report.Add("sim.lifecycle.ns", per_tick(kLifecycle), "ns");
    report.Add("sim.completions", static_cast<double>(profile.completions), "count");
    report.Add("sched.balance.ns", per_tick(kBalance), "ns");
    report.Add("sched.migrations", static_cast<double>(profile.migrations), "count");
    report.Add("sim.observers.ns", per_tick(kObservers), "ns");
    double package_ns = 0.0;
    for (Phase phase : {kGate, kGovern, kSwitchIn, kAccount, kExecute, kSample, kThermal}) {
      package_ns += profile.ns[phase];
    }
    report.Add("sim.package_phases.share", profile.tick_ns > 0 ? package_ns / profile.tick_ns : 0.0,
               "ratio");

    std::filesystem::create_directories(kOutDir);
    const std::string path = std::string(kOutDir) + "/trace-" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".jsonl";
    Note("spans", std::to_string(profile.spans.size()) + " written to " + path);
    if (!WriteSpans(path, profile.spans)) {
      std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
    }
  }
  Note("ticks/s untraced vs traced",
       std::to_string(untraced_tps) + " vs " + std::to_string(traced_tps));
  report.Add("trace.overhead", untraced_tps > 0 ? traced_tps / untraced_tps : 0.0, "ratio");
  MeasureApiLayer(text, args, record, report);
}

}  // namespace

const std::vector<std::string>& EngineWorkloadNames() {
  static const std::vector<std::string> names = {"paper-dense", "cluster-1024", "sparse-idle"};
  return names;
}

std::string EngineRequestText(const std::string& workload, std::uint64_t seed, double scale) {
  std::string text;
  double full_seconds = 0.0;
  if (workload == "paper-dense") {
    text = "scenario = paper-mixed";
    full_seconds = kDenseSeconds;
  } else if (workload == "cluster-1024") {
    text = "scenario = datacenter-consolidation; topology = rack=2:board=4:node=16:package=4:smt=2";
    full_seconds = 20.0;
  } else if (workload == "sparse-idle") {
    text = "max-power = 60";
    full_seconds = kSparseSeconds;
  } else {
    throw std::invalid_argument("unknown engine workload " + workload);
  }
  // cluster-1024 keeps the scenario's own duration unless a test shrinks it;
  // paper-dense shortens its scenario and sparse-idle has none, so both
  // always state their length.
  if (scale != 1.0 || workload != "cluster-1024") {
    char duration[64];
    std::snprintf(duration, sizeof(duration), "; duration-s = %g", full_seconds * scale);
    text += duration;
  }
  return text + "; seed = " + std::to_string(seed);
}

void RunEngineWorkload(const Args& args, Report& report) {
  const std::string text = EngineRequestText(args.workload, args.seed, args.scale);
  if (args.trace) {
    RunTraced(text, args, report);
  } else {
    RunUntraced(text, args, report);
  }
}

}  // namespace perfbench
