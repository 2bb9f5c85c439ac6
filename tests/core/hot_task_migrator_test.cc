#include "src/core/hot_task_migrator.h"

#include <gtest/gtest.h>

#include "tests/testing/fake_env.h"

namespace eas {
namespace {

// 8-way SMT-off paper machine.
CpuTopology EightCpus() { return CpuTopology::PaperXSeries445(false); }

TEST(HotTaskMigratorTest, TriggerRequiresSingleTask) {
  FakeEnv env(EightCpus(), 40.0);
  env.AddRunningTask(61.0, 0);
  env.AddTask(61.0, 0);  // two tasks -> energy balancing territory
  env.SetThermalPower(0, 39.8);
  HotTaskMigrator migrator;
  EXPECT_FALSE(migrator.ShouldMigrate(0, env));
}

TEST(HotTaskMigratorTest, TriggerRequiresNearLimit) {
  FakeEnv env(EightCpus(), 40.0);
  env.AddRunningTask(61.0, 0);
  env.SetThermalPower(0, 30.0);
  HotTaskMigrator migrator;
  EXPECT_FALSE(migrator.ShouldMigrate(0, env));
  env.SetThermalPower(0, 39.5);
  EXPECT_TRUE(migrator.ShouldMigrate(0, env));
}

TEST(HotTaskMigratorTest, MigratesToIdleCoolCpu) {
  FakeEnv env(EightCpus(), 40.0);
  Task* hot = env.AddRunningTask(61.0, 0);
  env.SetThermalPower(0, 39.5);
  for (int cpu = 1; cpu < 8; ++cpu) {
    env.SetThermalPower(cpu, 13.6);
  }
  HotTaskMigrator migrator;
  const auto result = migrator.Check(0, env);
  EXPECT_TRUE(result.migrated);
  EXPECT_FALSE(result.exchanged);
  EXPECT_NE(result.destination, 0);
  EXPECT_EQ(hot->cpu(), result.destination);
  EXPECT_EQ(hot->migrations(), 1);
}

TEST(HotTaskMigratorTest, PrefersSameNodeDestination) {
  FakeEnv env(EightCpus(), 40.0);
  env.AddRunningTask(61.0, 0);
  env.SetThermalPower(0, 39.5);
  // All of node 0 fairly cool, node 1 coolest overall - but node 0 first.
  for (int cpu : {1, 2, 3}) {
    env.SetThermalPower(cpu, 15.0);
  }
  for (int cpu : {4, 5, 6, 7}) {
    env.SetThermalPower(cpu, 13.6);
  }
  HotTaskMigrator migrator;
  const auto result = migrator.Check(0, env);
  ASSERT_TRUE(result.migrated);
  EXPECT_LT(result.destination, 4) << "should stay on node 0";
}

TEST(HotTaskMigratorTest, CrossesNodeOnlyWhenNodeIsHot) {
  FakeEnv env(EightCpus(), 40.0);
  env.AddRunningTask(61.0, 0);
  env.SetThermalPower(0, 39.5);
  for (int cpu : {1, 2, 3}) {
    env.SetThermalPower(cpu, 38.0);  // node 0 all hot
  }
  for (int cpu : {4, 5, 6, 7}) {
    env.SetThermalPower(cpu, 13.6);
  }
  HotTaskMigrator migrator;
  const auto result = migrator.Check(0, env);
  ASSERT_TRUE(result.migrated);
  EXPECT_GE(result.destination, 4) << "node 0 offered no cool CPU";
}

TEST(HotTaskMigratorTest, StaysWhenAllCpusHot) {
  FakeEnv env(EightCpus(), 40.0);
  Task* hot = env.AddRunningTask(61.0, 0);
  for (int cpu = 0; cpu < 8; ++cpu) {
    env.SetThermalPower(cpu, 39.0);  // everything near the limit
  }
  HotTaskMigrator migrator;
  const auto result = migrator.Check(0, env);
  EXPECT_FALSE(result.migrated);
  EXPECT_EQ(hot->cpu(), 0);
}

TEST(HotTaskMigratorTest, RequiresConsiderablyCoolerDestination) {
  FakeEnv env(EightCpus(), 40.0);
  env.AddRunningTask(61.0, 0);
  env.SetThermalPower(0, 39.5);
  for (int cpu = 1; cpu < 8; ++cpu) {
    env.SetThermalPower(cpu, 33.0);  // cooler, but only by ~6 W < threshold
  }
  HotTaskMigrator migrator;  // kMinThermalDiffWatts = 10
  EXPECT_FALSE(migrator.Check(0, env).migrated);
}

TEST(HotTaskMigratorTest, ExchangesWithCoolTask) {
  FakeEnv env(EightCpus(), 40.0);
  Task* hot = env.AddRunningTask(61.0, 0);
  env.SetThermalPower(0, 39.5);
  // Every other CPU runs one cool task; cpu5 is the coolest.
  for (int cpu = 1; cpu < 8; ++cpu) {
    env.AddRunningTask(38.0, cpu);
    env.SetThermalPower(cpu, cpu == 5 ? 20.0 : 30.0);
  }
  HotTaskMigrator migrator;
  const auto result = migrator.Check(0, env);
  ASSERT_TRUE(result.migrated);
  EXPECT_TRUE(result.exchanged);
  EXPECT_EQ(result.destination, 5);
  EXPECT_EQ(hot->cpu(), 5);
  // The cool task moved to cpu0 in exchange: no load imbalance.
  EXPECT_EQ(env.runqueue(0).nr_running(), 1u);
  EXPECT_EQ(env.runqueue(5).nr_running(), 1u);
}

// Fails the Nth migration request, to model a return exchange that cannot
// complete after the hot half of the swap already did.
class FailingMigrateEnv : public FakeEnv {
 public:
  using FakeEnv::FakeEnv;

  bool MigrateTask(Task* task, int from, int to) override {
    ++migrate_calls;
    if (migrate_calls == fail_on_call) {
      return false;
    }
    return FakeEnv::MigrateTask(task, from, to);
  }

  int migrate_calls = 0;
  int fail_on_call = 2;
};

TEST(HotTaskMigratorTest, ReportsMigrationWhenReturnExchangeFails) {
  FailingMigrateEnv env(EightCpus(), 40.0);
  Task* hot = env.AddRunningTask(61.0, 0);
  env.SetThermalPower(0, 39.5);
  for (int cpu = 1; cpu < 8; ++cpu) {
    Task* cool = env.AddRunningTask(38.0, cpu);
    env.SetThermalPower(cpu, cpu == 5 ? 20.0 : 30.0);
    (void)cool;
  }
  HotTaskMigrator migrator;
  const auto result = migrator.Check(0, env);
  // The hot task did move - the statistics must report the completed half of
  // the swap even though the cool task never came back.
  EXPECT_TRUE(result.migrated);
  EXPECT_FALSE(result.exchanged);
  EXPECT_EQ(result.destination, 5);
  EXPECT_EQ(hot->cpu(), 5);
  EXPECT_EQ(env.migrate_calls, 2);
  EXPECT_EQ(env.runqueue(0).nr_running(), 0u);
  EXPECT_EQ(env.runqueue(5).nr_running(), 2u);
}

TEST(HotTaskMigratorTest, NoExchangeWithEquallyHotTask) {
  FakeEnv env(EightCpus(), 40.0);
  env.AddRunningTask(61.0, 0);
  env.SetThermalPower(0, 39.5);
  for (int cpu = 1; cpu < 8; ++cpu) {
    env.AddRunningTask(60.0, cpu);  // all running equally hot tasks
    env.SetThermalPower(cpu, 20.0);
  }
  HotTaskMigrator migrator;
  EXPECT_FALSE(migrator.Check(0, env).migrated);
}

// --- SMT rules (Section 4.7) -------------------------------------------------

TEST(HotTaskMigratorTest, SmtTriggerUsesSiblingSum) {
  FakeEnv env(CpuTopology::PaperXSeries445(true), 20.0);  // 20 W per logical
  env.AddRunningTask(61.0, 0);
  HotTaskMigrator migrator;  // kTriggerMarginWatts = 2
  // Logical 0 at 33 W, far past its own 20 W, but with the sibling (8) idle
  // at 4.5 W the package sums 37.5 W < 40 - 2 W margin.
  env.SetThermalPower(0, 33.0);
  env.SetThermalPower(8, 4.5);
  EXPECT_FALSE(migrator.ShouldMigrate(0, env));
  env.SetThermalPower(8, 5.5);  // sum 38.5 W > 40 - margin
  EXPECT_TRUE(migrator.ShouldMigrate(0, env));
}

TEST(HotTaskMigratorTest, NeverMigratesToSibling) {
  FakeEnv env(CpuTopology::PaperXSeries445(true), 20.0);
  Task* hot = env.AddRunningTask(61.0, 0);
  env.SetThermalPower(0, 35.0);
  env.SetThermalPower(8, 6.0);  // the sibling is by far the coolest number
  for (int cpu = 1; cpu < 16; ++cpu) {
    if (cpu != 8) {
      env.SetThermalPower(cpu, 12.0);
    }
  }
  HotTaskMigrator migrator;
  const auto result = migrator.Check(0, env);
  ASSERT_TRUE(result.migrated);
  EXPECT_NE(result.destination, 8) << "sibling shares the die - migration there cannot help";
  EXPECT_NE(hot->cpu(), 8);
}

}  // namespace
}  // namespace eas
