// SimulationEngine pipeline ordering: the phase decomposition must preserve
// the semantics of the original monolithic Machine::Step. ManualStep below
// is a line-for-line port of that pre-refactor tick (wakeups -> per-package
// throttle decision, switch-in, execution with fused energy accounting,
// idle-share accounting, true power + RC step -> lifecycle of every CPU that
// executed, in package order, once all packages ran -> balancers -> tick
// advance); driving a twin state through it must stay bit-identical to the
// engine for every tick. Lifecycle after the package loop is what keeps a
// task respawned onto a later package from executing twice in one tick.

#include "src/sim/simulation_engine.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/core/policy_registry.h"
#include "src/sim/machine.h"
#include "src/workloads/programs.h"
#include "src/workloads/workload_builder.h"

namespace eas {
namespace {

// The pre-refactor Machine::Step, expressed over SimulationState, with
// lifecycle moved after the package loop.
class ManualStepper {
 public:
  explicit ManualStepper(const EnergySchedConfig& sched)
      : policy_(BalancePolicyRegistry::Global().CreateOrThrow(EffectiveBalancerName(sched),
                                                              sched)),
        hot_migrator_(sched.hot_migration) {}

  void Step(SimulationState& s) {
    const MachineConfig& config = s.config();
    // Wake sleepers.
    for (const auto& task : s.tasks()) {
      if (task->state() == TaskState::kSleeping && task->wake_tick() <= s.now()) {
        s.runqueue(task->cpu()).EnqueueFront(task);
      }
    }

    // Execute CPUs, package by package.
    const std::size_t physical = config.topology.num_physical();
    const std::size_t siblings = config.topology.smt_per_physical();
    const double static_share = s.estimator().static_power_per_logical();
    const double idle_share = s.IdlePowerPerLogical();

    std::vector<int> executed;  // every package's active CPUs, package order
    for (std::size_t phys = 0; phys < physical; ++phys) {
      bool throttled = false;
      if (config.throttling_enabled) {
        double thermal_sum = 0.0;
        for (std::size_t t = 0; t < siblings; ++t) {
          thermal_sum += s.ThermalPower(config.topology.LogicalId(phys, t));
        }
        throttled =
            s.package_throttle(phys).ShouldThrottle(thermal_sum, s.MaxPowerPhysical(phys));
        s.package_throttle(phys).AccountTick(throttled);
      }

      std::vector<int> active;
      for (std::size_t t = 0; t < siblings; ++t) {
        const int cpu = config.topology.LogicalId(phys, t);
        s.SwitchInIfIdle(cpu);
        const bool wants_to_run = s.runqueue(cpu).current() != nullptr;
        if (config.throttling_enabled) {
          s.throttle(cpu).AccountTick(throttled && wants_to_run);
        }
        if (wants_to_run && !throttled) {
          active.push_back(cpu);
        }
      }

      const double corun_speed = active.size() >= 2 ? config.smt_corun_speed : 1.0;
      double true_dynamic = 0.0;
      for (int cpu : active) {
        Task* task = s.runqueue(cpu).current();
        double speed = corun_speed;
        if (task->warmup_ticks_left() > 0) {
          speed *= config.warmup_speed;
        }
        const EventVector events = task->ExecuteTick(speed);
        s.counters(cpu).Accumulate(events);
        true_dynamic += config.model.DynamicEnergy(events);
        const double estimated =
            s.estimator().EstimateDynamicEnergy(events) + static_share * kTickSeconds;
        task->AccumulateEnergy(estimated);
        task->AccountActiveTick();
        task->TickTimeslice();
        s.power_state(cpu).AccountEnergy(estimated, kTickSeconds);
      }

      for (std::size_t t = 0; t < siblings; ++t) {
        const int cpu = config.topology.LogicalId(phys, t);
        bool is_active = false;
        for (int a : active) {
          if (a == cpu) {
            is_active = true;
          }
        }
        if (!is_active) {
          s.power_state(cpu).AccountEnergy(idle_share * kTickSeconds, kTickSeconds);
        }
      }

      const double n_active = static_cast<double>(active.size());
      const double n_total = static_cast<double>(siblings);
      const double static_true =
          active.empty()
              ? config.model.halt_power()
              : config.model.active_base_power() * (n_active / n_total) +
                    config.model.halt_power() * ((n_total - n_active) / n_total);
      const double true_power = static_true + true_dynamic / kTickSeconds;
      s.set_true_power(phys, true_power);
      s.thermal(phys).Step(true_power, kTickSeconds);
      executed.insert(executed.end(), active.begin(), active.end());
    }

    for (int cpu : executed) {
      Lifecycle(s, cpu);
    }

    // Balancers.
    const std::size_t logical = config.topology.num_logical();
    for (std::size_t i = 0; i < logical; ++i) {
      const int cpu = static_cast<int>(i);
      const Tick stagger = static_cast<Tick>(i) * 17;
      const bool idle = s.runqueue(cpu).Idle();
      const Tick interval = idle ? config.sched.idle_balance_interval_ticks
                                 : config.sched.balance_interval_ticks;
      if ((s.now() + stagger) % interval == 0) {
        policy_->Balance(cpu, s);
      }
      if (config.sched.hot_task_migration &&
          (s.now() + stagger) % config.sched.hot_check_interval_ticks == 0) {
        hot_migrator_.Check(cpu, s);
      }
    }

    s.AdvanceTick();
  }

 private:
  void Lifecycle(SimulationState& s, int cpu) {
    const MachineConfig& config = s.config();
    Runqueue& rq = s.runqueue(cpu);
    Task* task = rq.current();
    if (task == nullptr) {
      return;
    }
    const Tick sleep = task->TakePendingSleep();
    if (sleep > 0) {
      s.CommitPeriod(*task);
      rq.TakeCurrent();
      task->set_state(TaskState::kSleeping);
      task->set_wake_tick(s.now() + sleep);
      return;
    }
    if (task->WorkComplete()) {
      s.CommitPeriod(*task);
      if (config.respawn_completed) {
        task->RestartProgram();
        rq.TakeCurrent();
        const int cpu_new = s.PlaceTask(*task);
        task->set_timeslice_left(Task::TimesliceForNice(task->nice(), config.timeslice_ticks));
        s.runqueue(cpu_new).Enqueue(task);
      } else {
        rq.TakeCurrent();
        task->set_state(TaskState::kFinished);
      }
      return;
    }
    if (task->timeslice_left() <= 0) {
      s.CommitPeriod(*task);
      task->set_timeslice_left(Task::TimesliceForNice(task->nice(), config.timeslice_ticks));
      if (rq.nr_queued() > 0) {
        rq.TakeCurrent();
        rq.Enqueue(task);
      }
    }
  }

  std::unique_ptr<BalancePolicy> policy_;
  HotTaskMigrator hot_migrator_;
};

void ExpectStatesBitIdentical(SimulationState& a, SimulationState& b) {
  ASSERT_EQ(a.now(), b.now());
  EXPECT_EQ(a.migration_count(), b.migration_count());
  EXPECT_EQ(a.TotalWorkDone(), b.TotalWorkDone());
  EXPECT_EQ(a.TotalTaskEnergy(), b.TotalTaskEnergy());
  EXPECT_EQ(a.TotalCompletions(), b.TotalCompletions());
  for (std::size_t cpu = 0; cpu < a.num_cpus(); ++cpu) {
    const int c = static_cast<int>(cpu);
    EXPECT_EQ(a.ThermalPower(c), b.ThermalPower(c)) << "cpu " << cpu;
    EXPECT_EQ(a.RunqueuePower(c), b.RunqueuePower(c)) << "cpu " << cpu;
    EXPECT_EQ(a.throttle(c).ThrottledFraction(), b.throttle(c).ThrottledFraction());
    EXPECT_EQ(a.runqueue(c).nr_running(), b.runqueue(c).nr_running());
  }
  for (std::size_t phys = 0; phys < a.num_physical(); ++phys) {
    EXPECT_EQ(a.Temperature(phys), b.Temperature(phys)) << "phys " << phys;
    EXPECT_EQ(a.TruePower(phys), b.TruePower(phys)) << "phys " << phys;
  }
  ASSERT_EQ(a.tasks().size(), b.tasks().size());
  for (std::size_t i = 0; i < a.tasks().size(); ++i) {
    const Task& ta = *a.tasks()[i];
    const Task& tb = *b.tasks()[i];
    EXPECT_EQ(ta.state(), tb.state());
    EXPECT_EQ(SimulationState::TaskCpu(ta), SimulationState::TaskCpu(tb));
    EXPECT_EQ(ta.work_done_ticks(), tb.work_done_ticks());
    EXPECT_EQ(ta.total_energy(), tb.total_energy());
    EXPECT_EQ(ta.profile().power(), tb.profile().power());
    EXPECT_EQ(ta.migrations(), tb.migrations());
  }
}

MachineConfig PipelineConfig(bool smt, bool throttling, EnergySchedConfig sched) {
  MachineConfig config;
  config.topology = smt ? CpuTopology(1, 2, 2) : CpuTopology(2, 2, 1);
  config.cooling = CoolingProfile::Uniform(config.topology.num_physical(), ThermalParams{});
  config.explicit_max_power_physical = throttling ? 40.0 : 200.0;
  config.throttling_enabled = throttling;
  config.estimator_weights = EnergyModel::Default().weights();
  config.sched = sched;
  config.seed = 7;
  return config;
}

void RunEquivalence(const MachineConfig& config, Tick ticks) {
  SimulationState engine_state(config);
  SimulationState manual_state(config);
  SimulationEngine engine(config.sched);
  ManualStepper manual(config.sched);

  const ProgramLibrary library(EnergyModel::Default());
  for (const Program* program : MixedWorkload(library, 1)) {
    engine_state.Spawn(*program, 0);
    manual_state.Spawn(*program, 0);
  }

  for (Tick t = 0; t < ticks; ++t) {
    engine.Tick(engine_state);
    manual.Step(manual_state);
  }
  ExpectStatesBitIdentical(engine_state, manual_state);
}

TEST(EnginePipelineTest, MatchesMonolithicStepEnergyAware) {
  RunEquivalence(PipelineConfig(false, false, EnergySchedConfig::EnergyAware()), 10'000);
}

TEST(EnginePipelineTest, MatchesMonolithicStepSmtThrottled) {
  RunEquivalence(PipelineConfig(true, true, EnergySchedConfig::EnergyAware()), 10'000);
}

TEST(EnginePipelineTest, MatchesMonolithicStepBaseline) {
  RunEquivalence(PipelineConfig(false, true, EnergySchedConfig::Baseline()), 10'000);
}

TEST(EnginePipelineTest, MatchesMonolithicStepNaivePolicies) {
  EnergySchedConfig sched;
  sched.balancer_kind = BalancerKind::kPowerOnly;
  RunEquivalence(PipelineConfig(false, false, sched), 5'000);
  sched.balancer_kind = BalancerKind::kTemperatureOnly;
  RunEquivalence(PipelineConfig(true, false, sched), 5'000);
}

// Observers fire after the tick counter advances, once per tick, in
// registration order.
class RecordingObserver : public TickObserver {
 public:
  void OnTick(const SimulationState& state) override { seen.push_back(state.now()); }
  std::vector<Tick> seen;
};

TEST(EnginePipelineTest, ObserversSeeAdvancedTick) {
  MachineConfig config = PipelineConfig(false, false, EnergySchedConfig::EnergyAware());
  Machine machine(config);
  RecordingObserver observer;
  machine.engine().AddObserver(&observer);
  machine.Run(3);
  machine.engine().RemoveObserver(&observer);
  machine.Run(2);
  ASSERT_EQ(observer.seen.size(), 3u);
  EXPECT_EQ(observer.seen[0], 1);
  EXPECT_EQ(observer.seen[1], 2);
  EXPECT_EQ(observer.seen[2], 3);
  EXPECT_EQ(machine.state().now(), 5);
}

}  // namespace
}  // namespace eas
