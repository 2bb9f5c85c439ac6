#include "src/task/task.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <utility>

namespace eas {
namespace {

std::unique_ptr<Program> CpuBoundProgram(Tick work = 0) {
  Phase phase;
  phase.rates[EventIndex(EventType::kUopsRetired)] = 100.0;
  phase.mean_duration = 50;
  phase.duration_jitter = 0.0;
  phase.rate_noise = 0.0;
  return std::make_unique<Program>("cpu", 1, std::vector<Phase>{phase}, work);
}

std::unique_ptr<Program> BlockingProgram() {
  Phase phase;
  phase.rates[EventIndex(EventType::kUopsRetired)] = 100.0;
  phase.mean_duration = 10;
  phase.duration_jitter = 0.0;
  phase.mean_sleep_after = 20;
  return std::make_unique<Program>("blocking", 2, std::vector<Phase>{phase}, 0);
}

std::unique_ptr<Program> TwoPhaseProgram() {
  Phase hot;
  hot.rates[EventIndex(EventType::kIntAluOps)] = 500.0;
  hot.mean_duration = 5;
  hot.duration_jitter = 0.0;
  Phase cool;
  cool.rates[EventIndex(EventType::kIntAluOps)] = 50.0;
  cool.mean_duration = 5;
  cool.duration_jitter = 0.0;
  return std::make_unique<Program>("phased", 3, std::vector<Phase>{hot, cool}, 0);
}

// Three short phases with noise on every event, duration jitter and two
// sleeps after: phase and sleep draws interleave with each tick's six.
std::unique_ptr<Program> NoisyProgram() {
  std::vector<Phase> phases(3);
  const Tick durations[3] = {3, 5, 2};
  const Tick sleeps[3] = {4, 0, 9};
  for (std::size_t p = 0; p < phases.size(); ++p) {
    for (std::size_t i = 0; i < kNumEventTypes; ++i) {
      phases[p].rates[i] = 100.0 + 10.0 * static_cast<double>(i + p);
    }
    phases[p].mean_duration = durations[p];
    phases[p].duration_jitter = 0.25;
    phases[p].mean_sleep_after = sleeps[p];
    phases[p].rate_noise = 0.05;  // 1 + 0.05 g never clamps at max(0, .)
  }
  return std::make_unique<Program>("noisy", 4, phases, 0);
}

// Task's noise arithmetic replayed from Rng::Gaussian, one NextGaussian()
// draw at a time: the reference for a task that reads its normals ahead.
class OneDrawAtATimeTask {
 public:
  OneDrawAtATimeTask(const Program& program, std::uint64_t seed) : program_(program), rng_(seed) {
    EnterPhase(0);
  }

  EventVector ExecuteTick(double speed_factor) {
    const Phase& phase = program_.phase(phase_index_);
    EventVector events{};
    for (std::size_t i = 0; i < kNumEventTypes; ++i) {
      const double noise = 1.0 + rng_.Gaussian(0.0, phase.rate_noise);
      events[i] = phase.rates[i] * speed_factor * std::max(0.0, noise);
    }
    if (--ticks_left_in_phase_ <= 0) {
      if (phase.mean_sleep_after > 0) {
        pending_sleep_ = Jittered(phase.mean_sleep_after, 1.0 + rng_.Gaussian(0.0, 0.3));
      }
      EnterPhase(phase_index_ + 1);
    }
    return events;
  }

  Tick TakePendingSleep() { return std::exchange(pending_sleep_, 0); }

  void RestartProgram() {
    pending_sleep_ = 0;
    EnterPhase(0);
  }

  std::size_t phase_index() const { return phase_index_; }

 private:
  static Tick Jittered(Tick mean, double jitter) {
    return std::max<Tick>(
        1, static_cast<Tick>(std::lround(static_cast<double>(mean) * std::max(0.1, jitter))));
  }

  void EnterPhase(std::size_t index) {
    phase_index_ = index % program_.num_phases();
    const Phase& phase = program_.phase(phase_index_);
    ticks_left_in_phase_ =
        Jittered(phase.mean_duration, 1.0 + rng_.Gaussian(0.0, phase.duration_jitter));
  }

  const Program& program_;
  Rng rng_;
  std::size_t phase_index_ = 0;
  Tick ticks_left_in_phase_ = 0;
  Tick pending_sleep_ = 0;
};

TEST(TaskTest, NoiseStreamMatchesSuccessiveCalls) {
  // A task reads its normals ahead, a stage at a time; every event, phase
  // change and sleep must still be the one-at-a-time stream's, bit for bit,
  // across refills that land mid-tick and across a restart.
  auto program = NoisyProgram();
  for (const std::uint64_t seed : {5u, 77u, 9001u}) {
    Task task(1, program.get(), seed);
    OneDrawAtATimeTask reference(*program, seed);
    int phase_changes = 0;
    int sleeps = 0;
    for (int tick = 0; tick < 600; ++tick) {
      SCOPED_TRACE(testing::Message() << "seed = " << seed << ", tick = " << tick);
      if (tick == 250) {
        task.RestartProgram();
        reference.RestartProgram();
      }
      const std::size_t phase_before = task.phase_index();
      const double speed = tick % 3 == 0 ? 0.75 : 1.0;
      const EventVector events = task.ExecuteTick(speed);
      const EventVector expected = reference.ExecuteTick(speed);
      ASSERT_EQ(std::memcmp(events.data(), expected.data(), sizeof(EventVector)), 0);
      ASSERT_EQ(task.phase_index(), reference.phase_index());
      const Tick sleep = task.TakePendingSleep();
      ASSERT_EQ(sleep, reference.TakePendingSleep());
      phase_changes += task.phase_index() != phase_before ? 1 : 0;
      sleeps += sleep > 0 ? 1 : 0;
    }
    // The program really interleaves: about one phase draw every 3.3 ticks.
    EXPECT_GT(phase_changes, 100);
    EXPECT_GT(sleeps, 60);
  }
}

TEST(TaskTest, ExecuteTickEmitsPhaseRates) {
  auto program = CpuBoundProgram();
  Task task(1, program.get(), 42);
  const EventVector events = task.ExecuteTick(1.0);
  EXPECT_DOUBLE_EQ(events[EventIndex(EventType::kUopsRetired)], 100.0);
  EXPECT_DOUBLE_EQ(events[EventIndex(EventType::kFpuOps)], 0.0);
}

TEST(TaskTest, SpeedFactorScalesEventsAndWork) {
  auto program = CpuBoundProgram();
  Task task(1, program.get(), 42);
  const EventVector events = task.ExecuteTick(0.5);
  EXPECT_DOUBLE_EQ(events[EventIndex(EventType::kUopsRetired)], 50.0);
  EXPECT_DOUBLE_EQ(task.work_done_ticks(), 0.5);
}

TEST(TaskTest, PhaseRotation) {
  auto program = TwoPhaseProgram();
  Task task(1, program.get(), 42);
  EXPECT_EQ(task.phase_index(), 0u);
  for (int i = 0; i < 5; ++i) {
    task.ExecuteTick(1.0);
  }
  EXPECT_EQ(task.phase_index(), 1u);
  for (int i = 0; i < 5; ++i) {
    task.ExecuteTick(1.0);
  }
  EXPECT_EQ(task.phase_index(), 0u);  // loops
}

TEST(TaskTest, BlockingPhaseRequestsSleep) {
  auto program = BlockingProgram();
  Task task(1, program.get(), 42);
  Tick sleep = 0;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(task.TakePendingSleep(), 0);
    task.ExecuteTick(1.0);
  }
  sleep = task.TakePendingSleep();
  EXPECT_GT(sleep, 0);
  // Taking it again returns 0 (consumed).
  EXPECT_EQ(task.TakePendingSleep(), 0);
}

TEST(TaskTest, WorkCompletion) {
  auto program = CpuBoundProgram(10);
  Task task(1, program.get(), 42);
  for (int i = 0; i < 9; ++i) {
    task.ExecuteTick(1.0);
    EXPECT_FALSE(task.WorkComplete());
  }
  task.ExecuteTick(1.0);
  EXPECT_TRUE(task.WorkComplete());
}

TEST(TaskTest, InfiniteProgramNeverCompletes) {
  auto program = CpuBoundProgram(0);
  Task task(1, program.get(), 42);
  for (int i = 0; i < 1000; ++i) {
    task.ExecuteTick(1.0);
  }
  EXPECT_FALSE(task.WorkComplete());
}

TEST(TaskTest, RestartCountsCompletion) {
  auto program = CpuBoundProgram(5);
  Task task(1, program.get(), 42);
  for (int i = 0; i < 5; ++i) {
    task.ExecuteTick(1.0);
  }
  EXPECT_TRUE(task.WorkComplete());
  task.RestartProgram();
  EXPECT_EQ(task.completions(), 1);
  EXPECT_FALSE(task.WorkComplete());
  EXPECT_DOUBLE_EQ(task.work_done_ticks(), 0.0);
}

TEST(TaskTest, AccountingPeriodLifecycle) {
  auto program = CpuBoundProgram();
  Task task(1, program.get(), 42);
  task.BeginAccountingPeriod();
  task.AccumulateEnergy(3.0);
  task.AccountActiveTick();
  task.AccountActiveTick();
  EXPECT_DOUBLE_EQ(task.period_energy(), 3.0);
  EXPECT_EQ(task.period_ticks(), 2);
  EXPECT_TRUE(task.first_period_pending());
  const double committed = task.CommitAccountingPeriod();
  EXPECT_DOUBLE_EQ(committed, 3.0);
  EXPECT_FALSE(task.first_period_pending());
  EXPECT_EQ(task.period_ticks(), 0);
  // 3 J over 2 ms = 1500 W fed to the profile (first sample initializes).
  EXPECT_NEAR(task.profile().power(), 1500.0, 1e-6);
}

TEST(TaskTest, EmptyPeriodCommitIsNoop) {
  auto program = CpuBoundProgram();
  Task task(1, program.get(), 42);
  task.profile().Seed(40.0);
  EXPECT_DOUBLE_EQ(task.CommitAccountingPeriod(), 0.0);
  EXPECT_DOUBLE_EQ(task.profile().power(), 40.0);
  EXPECT_TRUE(task.first_period_pending());
}

TEST(TaskTest, MigrationBookkeeping) {
  auto program = CpuBoundProgram();
  Task task(1, program.get(), 42);
  task.NoteMigration(/*crossed_node=*/false, /*warmup_ticks=*/3);
  EXPECT_EQ(task.migrations(), 1);
  EXPECT_EQ(task.node_migrations(), 0);
  EXPECT_EQ(task.warmup_ticks_left(), 3);
  task.NoteMigration(/*crossed_node=*/true, /*warmup_ticks=*/12);
  EXPECT_EQ(task.migrations(), 2);
  EXPECT_EQ(task.node_migrations(), 1);
  // Warmup decays with execution.
  task.ExecuteTick(1.0);
  EXPECT_EQ(task.warmup_ticks_left(), 11);
}

TEST(TaskTest, TotalEnergyAccumulates) {
  auto program = CpuBoundProgram();
  Task task(1, program.get(), 42);
  task.BeginAccountingPeriod();
  task.AccumulateEnergy(1.0);
  task.AccountActiveTick();
  task.CommitAccountingPeriod();
  task.AccumulateEnergy(2.0);
  task.AccountActiveTick();
  EXPECT_DOUBLE_EQ(task.total_energy(), 3.0);
}

}  // namespace
}  // namespace eas
