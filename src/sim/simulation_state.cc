#include "src/sim/simulation_state.h"

#include <cassert>
#include <limits>
#include <stdexcept>

#include "src/counters/calibration.h"

namespace eas {

SimulationState::SimulationState(const MachineConfig& config)
    : config_(config),
      domains_(DomainHierarchy::Build(config.topology)),
      rng_(config.seed) {
  const std::size_t logical = config_.topology.num_logical();
  const std::size_t physical = config_.topology.num_physical();
  const std::size_t siblings = config_.topology.smt_per_physical();
  assert(config_.cooling.num_physical() >= physical);

  // Calibrated estimator: either injected weights or a fresh calibration run
  // against the machine's power meter (the realistic path).
  EventWeights weights;
  if (config_.estimator_weights.has_value()) {
    weights = *config_.estimator_weights;
  } else {
    weights = Calibrator::CalibrateDefault(config_.model, config_.seed ^ 0xca11b7a7eULL,
                                           config_.meter_error_stddev)
                  .weights;
  }
  estimator_ = std::make_unique<EnergyEstimator>(
      weights, config_.model.active_base_power() / static_cast<double>(siblings));

  const double idle_logical = IdlePowerPerLogical();

  // Per-logical max power, in logical-CPU order (phys = cpu mod physical).
  max_power_logical_.reserve(logical);
  for (std::size_t cpu = 0; cpu < logical; ++cpu) {
    const std::size_t phys = config_.topology.PhysicalOf(static_cast<int>(cpu));
    const ThermalParams& params = config_.cooling.ParamsFor(phys);
    double max_physical;
    if (config_.explicit_max_power_physical.has_value()) {
      max_physical = *config_.explicit_max_power_physical;
    } else {
      max_physical = params.MaxPowerForTemp(config_.temp_limit);
    }
    max_power_logical_.push_back(max_physical / static_cast<double>(siblings));
  }

  // One shard per package. Reserved up front: the shards never move, so the
  // flat per-logical pointer tables below (and the runnable-counter pointer
  // each runqueue holds into its shard) stay valid for the state's lifetime.
  shards_.reserve(physical);
  for (std::size_t phys = 0; phys < physical; ++phys) {
    shards_.emplace_back(config_.cooling.ParamsFor(phys), config_.pstates,
                         config_.throttle_hysteresis_watts, config_.model.halt_power());
    PackageShard& shard = shards_.back();
    shard.runqueues.reserve(siblings);
    shard.counters.reserve(siblings);
    shard.power_states.reserve(siblings);
    shard.throttles.reserve(siblings);
    for (std::size_t t = 0; t < siblings; ++t) {
      const int cpu = config_.topology.LogicalId(phys, t);
      shard.runqueues.emplace_back(cpu);
      shard.runqueues.back().AttachRunnableCounter(&shard.runnable);
      shard.counters.emplace_back();
      shard.power_states.emplace_back(max_power_logical_[static_cast<std::size_t>(cpu)],
                                      config_.cooling.ParamsFor(phys).TimeConstant(),
                                      idle_logical);
      shard.throttles.emplace_back(config_.throttle_hysteresis_watts);
    }
  }

  // Flat O(1) lookup tables, logical-CPU indexed.
  runqueue_by_cpu_.resize(logical);
  counter_by_cpu_.resize(logical);
  power_state_by_cpu_.resize(logical);
  throttle_by_cpu_.resize(logical);
  for (std::size_t cpu = 0; cpu < logical; ++cpu) {
    const std::size_t phys = config_.topology.PhysicalOf(static_cast<int>(cpu));
    const std::size_t t = config_.topology.ThreadOf(static_cast<int>(cpu));
    PackageShard& shard = shards_[phys];
    runqueue_by_cpu_[cpu] = &shard.runqueues[t];
    counter_by_cpu_[cpu] = &shard.counters[t];
    power_state_by_cpu_[cpu] = &shard.power_states[t];
    throttle_by_cpu_[cpu] = &shard.throttles[t];
  }

  // Fault layer: healthy masks always exist (CpuOnline() must answer even
  // on fault-free machines); the event queue only fills from a plan.
  cpu_online_.assign(logical, 1);
  online_siblings_.assign(physical, static_cast<std::int64_t>(siblings));
  emergency_until_.assign(physical, 0);
  clamp_until_.assign(physical, 0);
  clamp_floor_.assign(physical, 0);
  if (config_.faulted()) {
    std::string fault_error;
    const std::optional<FaultPlan> plan =
        ParseFaultPlan(config_.fault_spec, config_.topology, &fault_error);
    if (!plan.has_value()) {
      throw std::invalid_argument("bad fault spec: " + fault_error);
    }
    for (std::size_t i = 0; i < plan->events.size(); ++i) {
      fault_queue_.Push(plan->events[i].tick, static_cast<std::int64_t>(i), plan->events[i]);
    }
  }
}

SimulationState::~SimulationState() {
  // Arena-allocated: destroy explicitly (the arena only releases memory).
  for (Task* task : tasks_) {
    task->~Task();
  }
}

double SimulationState::IdlePowerPerLogical() const {
  return config_.model.halt_power() / static_cast<double>(config_.topology.smt_per_physical());
}

double SimulationState::MaxPowerPhysical(std::size_t physical) const {
  const int first_logical = config_.topology.LogicalId(physical, 0);
  return max_power_logical_[static_cast<std::size_t>(first_logical)] *
         static_cast<double>(config_.topology.smt_per_physical());
}

double SimulationState::RunqueuePower(int cpu) const {
  return runqueue(cpu).AveragePower(IdlePowerPerLogical());
}

double SimulationState::ThermalPower(int cpu) const {
  return power_state_by_cpu_[static_cast<std::size_t>(cpu)]->thermal_power();
}

double SimulationState::PackageThermalPower(std::size_t physical) const {
  const PackageShard& shard = shards_[physical];
  double sum = 0.0;
  for (const CpuPowerState& power : shard.power_states) {
    sum += power.thermal_power();
  }
  return sum;
}

double SimulationState::MaxPower(int cpu) const {
  return max_power_logical_[static_cast<std::size_t>(cpu)];
}

int SimulationState::TaskCpu(const Task& task) {
  if (task.state() == TaskState::kSleeping || task.state() == TaskState::kFinished) {
    return kInvalidCpu;
  }
  return task.cpu();
}

Task* SimulationState::Spawn(const Program& program, int nice) {
  void* slot = task_arena_.allocate(sizeof(Task), alignof(Task));
  Task* raw = new (slot) Task(next_task_id_++, &program, rng_.NextU64());
  raw->set_nice(nice);
  // The profile's standard period stays the nice-0 timeslice for every task:
  // the variable-period exponential average normalizes any actual period
  // length (Section 3.3), so profiles of tasks with different priorities
  // remain comparable.
  raw->profile() = EnergyProfile(config_.profile_sample_weight, config_.timeslice_ticks);
  tasks_.push_back(raw);

  const int cpu = PlaceTask(*raw);
  if (!config_.sched.energy_aware_placement) {
    // The baseline still needs a profile seed so balancing math is defined;
    // stock Linux simply has no energy profile, which corresponds to seeding
    // with the registry default (no per-binary knowledge).
    raw->profile().Seed(registry_.default_power());
  }
  raw->set_timeslice_left(Task::TimesliceForNice(raw->nice(), config_.timeslice_ticks));
  runqueue(cpu).Enqueue(raw);
  return raw;
}

int SimulationState::PlaceTask(Task& task) {
  if (config_.sched.energy_aware_placement) {
    return placement_.Place(task, *this, registry_);
  }
  return PlaceLeastLoadedRandomTie();
}

int SimulationState::PlaceLeastLoadedRandomTie() {
  // Stock Linux 2.6 exec placement through the domain hierarchy: least
  // loaded CPU, preferring an idle *package* over the idle sibling of a
  // busy one (SMT-aware). Remaining ties break randomly, modelling the
  // incidental state (exec'ing CPU, parent's cache) that decides in a real
  // system, without biasing toward CPU 0.
  // Offline CPUs never receive placements; with every CPU online the
  // guards vanish and the scan is the historical one, bit for bit.
  std::size_t min_load = std::numeric_limits<std::size_t>::max();
  for (std::size_t cpu = 0; cpu < num_cpus(); ++cpu) {
    if (cpu_online_[cpu] == 0) {
      continue;
    }
    min_load = std::min(min_load, runqueue(static_cast<int>(cpu)).nr_running());
  }
  std::size_t min_package_load = std::numeric_limits<std::size_t>::max();
  for (std::size_t cpu = 0; cpu < num_cpus(); ++cpu) {
    if (cpu_online_[cpu] == 0 || runqueue(static_cast<int>(cpu)).nr_running() != min_load) {
      continue;
    }
    std::size_t package_load = 0;
    for (int sibling : config_.topology.SiblingsOf(static_cast<int>(cpu))) {
      package_load += runqueue(sibling).nr_running();
    }
    min_package_load = std::min(min_package_load, package_load);
  }
  std::vector<int> candidates;
  for (std::size_t cpu = 0; cpu < num_cpus(); ++cpu) {
    if (cpu_online_[cpu] == 0 || runqueue(static_cast<int>(cpu)).nr_running() != min_load) {
      continue;
    }
    std::size_t package_load = 0;
    for (int sibling : config_.topology.SiblingsOf(static_cast<int>(cpu))) {
      package_load += runqueue(sibling).nr_running();
    }
    if (package_load == min_package_load) {
      candidates.push_back(static_cast<int>(cpu));
    }
  }
  return candidates[rng_.NextBelow(candidates.size())];
}

void SimulationState::SetCpuOnline(int cpu, bool online) {
  std::uint8_t& flag = cpu_online_[static_cast<std::size_t>(cpu)];
  if ((flag != 0) == online) {
    return;
  }
  flag = online ? 1 : 0;
  const std::size_t phys = config_.topology.PhysicalOf(cpu);
  online_siblings_[phys] += online ? 1 : -1;
  offline_cpus_ += online ? -1 : 1;
}

bool SimulationState::FaultQuiescent() const {
  if (offline_cpus_ != 0) {
    return false;
  }
  for (std::size_t phys = 0; phys < shards_.size(); ++phys) {
    if (EmergencyActive(phys) || ClampActive(phys)) {
      return false;
    }
    // Ungoverned machines have no FrequencyPhase to walk a clamped domain
    // back to P0, so a domain still off P0 keeps the span ineligible (the
    // FaultPhase restores it when the clamp expires).
    if (!config_.governed() && shards_[phys].freq_domain.current() != 0) {
      return false;
    }
  }
  return true;
}

int SimulationState::PickOnlineFallback(int excluding) const {
  int best = excluding;
  std::size_t best_load = std::numeric_limits<std::size_t>::max();
  for (std::size_t cpu = 0; cpu < num_cpus(); ++cpu) {
    const int candidate = static_cast<int>(cpu);
    if (candidate == excluding || cpu_online_[cpu] == 0) {
      continue;
    }
    const std::size_t load = runqueue(candidate).nr_running();
    if (load < best_load) {
      best_load = load;
      best = candidate;
    }
  }
  return best;
}

bool SimulationState::MigrateTask(Task* task, int from, int to) {
  if (from == to) {
    return false;
  }
  if (cpu_online_[static_cast<std::size_t>(to)] == 0) {
    return false;  // never migrate onto an offlined CPU
  }
  Runqueue& src = runqueue(from);
  Runqueue& dst = runqueue(to);

  if (src.current() == task) {
    CommitPeriod(*task);
    src.TakeCurrent();
  } else if (!src.Remove(task)) {
    return false;
  }

  const bool crossed_node = !config_.topology.SameNode(from, to);
  task->NoteMigration(crossed_node, crossed_node ? config_.warmup_ticks_cross_node
                                                 : config_.warmup_ticks_same_node);
  dst.Enqueue(task);
  ++migration_count_;
  return true;
}

void SimulationState::CommitPeriod(Task& task) {
  const bool first = task.first_period_pending();
  const Tick period = task.period_ticks();
  const double energy = task.CommitAccountingPeriod();
  if (first && period > 0) {
    registry_.RecordFirstTimeslice(task.program().binary_id(),
                                   energy / TicksToSeconds(period));
  }
}

void SimulationState::StartSleep(Task& task, Tick duration) {
  task.set_state(TaskState::kSleeping);
  task.set_wake_tick(now_ + duration);
  wake_queue_.Push(task.wake_tick(), task.id(), &task);
}

void SimulationState::ScheduleArrival(const Program& program, int nice, Tick tick) {
  arrival_queue_.Push(tick, next_arrival_seq_++, PendingArrival{&program, nice});
}

void SimulationState::SwitchInIfIdle(int cpu) {
  Runqueue& rq = runqueue(cpu);
  if (rq.current() != nullptr) {
    return;
  }
  Task* next = rq.PickNext();
  if (next != nullptr) {
    next->set_timeslice_left(Task::TimesliceForNice(next->nice(), config_.timeslice_ticks));
    next->BeginAccountingPeriod();
  }
}

double SimulationState::TotalWorkDone() const {
  double total = 0.0;
  for (const Task* task : tasks_) {
    total += task->work_done_ticks() +
             static_cast<double>(task->completions()) *
                 static_cast<double>(task->program().total_work_ticks());
  }
  return total;
}

std::int64_t SimulationState::TotalCompletions() const {
  std::int64_t total = 0;
  for (const Task* task : tasks_) {
    total += task->completions();
  }
  return total;
}

double SimulationState::TotalTaskEnergy() const {
  double total = 0.0;
  for (const Task* task : tasks_) {
    total += task->total_energy();
  }
  return total;
}

}  // namespace eas
