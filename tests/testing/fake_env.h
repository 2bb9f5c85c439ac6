// A hand-controllable BalanceEnv for unit-testing balancing policies without
// a full SimulationState: thermal powers, max powers and which CPUs are
// online are set directly, tasks are created with fixed profile powers.

#ifndef TESTS_TESTING_FAKE_ENV_H_
#define TESTS_TESTING_FAKE_ENV_H_

#include <memory>
#include <vector>

#include "src/sched/balance_env.h"
#include "src/task/program.h"

namespace eas {

class FakeEnv : public BalanceEnv {
 public:
  explicit FakeEnv(const CpuTopology& topology, double max_power_per_logical = 60.0);
  ~FakeEnv() override;

  // Creates a runnable task with a seeded profile of `power_watts` and
  // enqueues it on `cpu`.
  Task* AddTask(double power_watts, int cpu);

  // Creates a task and makes it `cpu`'s current (running) task.
  Task* AddRunningTask(double power_watts, int cpu);

  void SetThermalPower(int cpu, double watts);
  void SetMaxPower(int cpu, double watts);
  void SetOnline(int cpu, bool online);

  // --- BalanceEnv -----------------------------------------------------------
  const CpuTopology& topology() const override { return topology_; }
  const DomainHierarchy& domains() const override { return domains_; }
  Runqueue& runqueue(int cpu) override { return *runqueues_[static_cast<std::size_t>(cpu)]; }
  const Runqueue& runqueue(int cpu) const override {
    return *runqueues_[static_cast<std::size_t>(cpu)];
  }
  double RunqueuePower(int cpu) const override;
  double ThermalPower(int cpu) const override;
  double MaxPower(int cpu) const override;
  bool MigrateTask(Task* task, int from, int to) override;
  bool CpuOnline(int cpu) const override { return online_[static_cast<std::size_t>(cpu)]; }
  std::int64_t migration_count() const override { return migrations_; }

  double idle_power = 13.6;

 private:
  CpuTopology topology_;
  DomainHierarchy domains_;
  std::unique_ptr<Program> dummy_program_;
  std::vector<std::unique_ptr<Runqueue>> runqueues_;
  std::vector<std::unique_ptr<Task>> tasks_;
  std::vector<double> thermal_power_;
  std::vector<double> max_power_;
  std::vector<bool> online_;
  std::int64_t migrations_ = 0;
  TaskId next_id_ = 1;
};

}  // namespace eas

#endif  // TESTS_TESTING_FAKE_ENV_H_
