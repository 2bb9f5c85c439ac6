#include "src/task/task.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace eas {

Task::Task(TaskId id, const Program* program, std::uint64_t seed)
    : id_(id), program_(program), noise_(seed) {
  EnterPhase(0);
}

Tick Task::TimesliceForNice(int nice) {
  // nice -20 -> 2x base, nice 0 -> base, nice 19 -> ~1/20 base (5 ticks),
  // mirroring Linux 2.6's static priority scale.
  const Tick scaled = kTimesliceTicks * (20 - nice) / 20;
  return std::max<Tick>(kTimesliceTicks / 20, scaled);
}

void Task::EnterPhase(std::size_t index) {
  phase_index_ = index % program_->num_phases();
  const Phase& phase = program_->phase(phase_index_);
  const double jitter = 1.0 + (0.0 + phase.duration_jitter * noise_.Next());
  ticks_left_in_phase_ =
      std::max<Tick>(1, static_cast<Tick>(std::lround(
                            static_cast<double>(phase.mean_duration) * std::max(0.1, jitter))));
}

EventVector Task::ExecuteTick(double speed_factor) {
  assert(speed_factor > 0.0 && speed_factor <= 1.0);
  const Phase& phase = current_phase();

  // Each draw keeps Gaussian(0.0, sigma)'s arithmetic, `0.0 + sigma * g`, on
  // the normals successive NextGaussian() calls would return, so the bits
  // match a task that drew them one at a time.
  std::array<double, kNumEventTypes> normals{};
  noise_.Fill(normals);
  EventVector events{};
  for (std::size_t i = 0; i < kNumEventTypes; ++i) {
    const double noise = 1.0 + (0.0 + phase.rate_noise * normals[i]);
    events[i] = phase.rates[i] * speed_factor * std::max(0.0, noise);
  }

  if (warmup_ticks_left_ > 0) {
    --warmup_ticks_left_;
  }

  work_done_ticks_ += speed_factor;
  --ticks_left_in_phase_;
  if (ticks_left_in_phase_ <= 0) {
    if (phase.mean_sleep_after > 0) {
      const double jitter = 1.0 + (0.0 + 0.3 * noise_.Next());
      pending_sleep_ = std::max<Tick>(
          1, static_cast<Tick>(std::lround(
                 static_cast<double>(phase.mean_sleep_after) * std::max(0.1, jitter))));
    }
    EnterPhase(phase_index_ + 1);
  }
  return events;
}

Tick Task::TakePendingSleep() {
  const Tick sleep = pending_sleep_;
  pending_sleep_ = 0;
  return sleep;
}

bool Task::WorkComplete() const {
  return program_->total_work_ticks() > 0 &&
         work_done_ticks() >= static_cast<double>(program_->total_work_ticks());
}

void Task::RestartProgram() {
  ++completions_;
  work_done_ticks_ = 0.0;
  pending_sleep_ = 0;
  EnterPhase(0);
}

void Task::BeginAccountingPeriod() {
  period_energy_ = 0.0;
  period_ticks_ = 0;
}

double Task::CommitAccountingPeriod() {
  if (period_ticks_ <= 0) {
    return 0.0;
  }
  const double energy = period_energy_;
  profile_.AddPeriod(energy, period_ticks_);
  first_period_pending_ = false;
  BeginAccountingPeriod();
  return energy;
}

void Task::NoteMigration(bool crossed_node, Tick warmup_ticks) {
  ++migrations_;
  if (crossed_node) {
    ++node_migrations_;
  }
  warmup_ticks_left_ = warmup_ticks;
}

}  // namespace eas
