#include "tests/testing/fake_env.h"

namespace eas {

FakeEnv::FakeEnv(const CpuTopology& topology, double max_power_per_logical)
    : topology_(topology), domains_(DomainHierarchy::Build(topology)) {
  Phase phase;
  phase.rates = EventRates{};
  phase.mean_duration = 1000;
  dummy_program_ = std::make_unique<Program>("dummy", 999, std::vector<Phase>{phase}, 0);
  for (std::size_t cpu = 0; cpu < topology_.num_logical(); ++cpu) {
    runqueues_.push_back(std::make_unique<Runqueue>(static_cast<int>(cpu)));
    thermal_power_.push_back(idle_power);
    max_power_.push_back(max_power_per_logical);
    online_.push_back(true);
  }
}

FakeEnv::~FakeEnv() = default;

Task* FakeEnv::AddTask(double power_watts, int cpu) {
  auto task = std::make_unique<Task>(next_id_++, dummy_program_.get(), 1234);
  task->profile().Seed(power_watts);
  Task* raw = task.get();
  tasks_.push_back(std::move(task));
  runqueue(cpu).Enqueue(raw);
  return raw;
}

Task* FakeEnv::AddRunningTask(double power_watts, int cpu) {
  Task* task = AddTask(power_watts, cpu);
  runqueue(cpu).Remove(task);
  task->set_state(TaskState::kRunning);
  task->set_cpu(cpu);
  runqueue(cpu).SetCurrent(task);
  return task;
}

void FakeEnv::SetThermalPower(int cpu, double watts) {
  thermal_power_[static_cast<std::size_t>(cpu)] = watts;
}

void FakeEnv::SetMaxPower(int cpu, double watts) {
  max_power_[static_cast<std::size_t>(cpu)] = watts;
}

void FakeEnv::SetOnline(int cpu, bool online) { online_[static_cast<std::size_t>(cpu)] = online; }

double FakeEnv::RunqueuePower(int cpu) const {
  return runqueue(cpu).AveragePower(idle_power);
}

double FakeEnv::ThermalPower(int cpu) const {
  return thermal_power_[static_cast<std::size_t>(cpu)];
}

double FakeEnv::MaxPower(int cpu) const { return max_power_[static_cast<std::size_t>(cpu)]; }

bool FakeEnv::MigrateTask(Task* task, int from, int to) {
  if (from == to) {
    return false;
  }
  Runqueue& src = runqueue(from);
  if (src.current() == task) {
    src.TakeCurrent();
  } else if (!src.Remove(task)) {
    return false;
  }
  task->NoteMigration(!topology_.SameNode(from, to), 3);
  runqueue(to).Enqueue(task);
  ++migrations_;
  return true;
}

}  // namespace eas
