#include "src/core/initial_placement.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "src/base/rng.h"
#include "src/task/program.h"
#include "tests/testing/fake_env.h"

namespace eas {
namespace {

std::unique_ptr<Program> ProgramWithBinary(BinaryId id) {
  Phase phase;
  phase.mean_duration = 100;
  return std::make_unique<Program>("p" + std::to_string(id), id, std::vector<Phase>{phase}, 0);
}

TEST(InitialPlacementTest, LeastLoadedPicksEmptiestCpu) {
  FakeEnv env(CpuTopology(1, 4, 1));
  env.AddRunningTask(40.0, 0);
  env.AddRunningTask(40.0, 1);
  env.AddRunningTask(40.0, 3);
  Rng rng(7);
  InitialPlacement placement;
  EXPECT_EQ(placement.PlaceBaseline(env, rng), 2);
}

TEST(InitialPlacementTest, SeedsProfileFromRegistry) {
  FakeEnv env(CpuTopology(1, 2, 1));
  BinaryRegistry registry(40.0);
  registry.RecordFirstTimeslice(77, 61.0);
  auto program = ProgramWithBinary(77);
  Task task(1, program.get(), 1);
  InitialPlacement placement;
  placement.Place(task, env, registry);
  EXPECT_DOUBLE_EQ(task.profile().power(), 61.0);
}

TEST(InitialPlacementTest, UnknownBinaryGetsDefaultSeed) {
  FakeEnv env(CpuTopology(1, 2, 1));
  BinaryRegistry registry(40.0);
  auto program = ProgramWithBinary(1234);
  Task task(1, program.get(), 1);
  InitialPlacement placement;
  placement.Place(task, env, registry);
  EXPECT_DOUBLE_EQ(task.profile().power(), 40.0);
}

TEST(InitialPlacementTest, OnlyLeastLoadedCpusEligible) {
  FakeEnv env(CpuTopology(1, 4, 1));
  // cpu0 empty and ice cold (most attractive energetically), others loaded.
  env.AddRunningTask(61.0, 1);
  env.AddRunningTask(61.0, 2);
  env.AddRunningTask(61.0, 3);
  BinaryRegistry registry(61.0);
  auto program = ProgramWithBinary(5);
  Task task(1, program.get(), 1);
  InitialPlacement placement;
  EXPECT_EQ(placement.Place(task, env, registry), 0);
}

TEST(InitialPlacementTest, HotTaskGoesToCoolQueue) {
  FakeEnv env(CpuTopology(1, 2, 1));
  // Equal load; cpu0 runs a hot task, cpu1 a cool one.
  env.AddRunningTask(61.0, 0);
  env.AddRunningTask(38.0, 1);
  BinaryRegistry registry(40.0);
  registry.RecordFirstTimeslice(9, 61.0);  // the new task is hot
  auto program = ProgramWithBinary(9);
  Task task(1, program.get(), 1);
  InitialPlacement placement;
  EXPECT_EQ(placement.Place(task, env, registry), 1);
}

TEST(InitialPlacementTest, CoolTaskGoesToHotQueue) {
  FakeEnv env(CpuTopology(1, 2, 1));
  env.AddRunningTask(61.0, 0);
  env.AddRunningTask(38.0, 1);
  BinaryRegistry registry(40.0);
  registry.RecordFirstTimeslice(10, 38.0);
  auto program = ProgramWithBinary(10);
  Task task(1, program.get(), 1);
  InitialPlacement placement;
  EXPECT_EQ(placement.Place(task, env, registry), 0);
}

TEST(InitialPlacementTest, AccountsForMaxPowerDifferences) {
  FakeEnv env(CpuTopology(1, 2, 1));
  env.SetMaxPower(0, 66.0);  // good cooler
  env.SetMaxPower(1, 44.0);  // poor cooler
  BinaryRegistry registry(40.0);
  registry.RecordFirstTimeslice(11, 61.0);
  auto program = ProgramWithBinary(11);
  Task task(1, program.get(), 1);
  InitialPlacement placement;
  // Both queues idle: the hot task must land on the better-cooled CPU
  // (smaller resulting ratio distance to the average).
  EXPECT_EQ(placement.Place(task, env, registry), 0);
}

// The eligibility rule written out literally: the online CPUs running the
// fewest tasks, then of those the ones whose package (all its siblings)
// runs the fewest.
std::vector<int> EligibleReference(const BalanceEnv& env) {
  const int n = static_cast<int>(env.topology().num_logical());
  auto load = [&env](int cpu) { return env.runqueue(cpu).nr_running(); };
  auto package_load = [&](int cpu) {
    std::size_t total = 0;
    for (int sibling : env.topology().SiblingsOf(cpu)) {
      total += load(sibling);
    }
    return total;
  };
  std::vector<int> online;
  for (int cpu = 0; cpu < n; ++cpu) {
    if (env.CpuOnline(cpu)) {
      online.push_back(cpu);
    }
  }
  std::size_t fewest = std::numeric_limits<std::size_t>::max();
  for (int cpu : online) {
    fewest = std::min(fewest, load(cpu));
  }
  std::vector<int> least_loaded;
  for (int cpu : online) {
    if (load(cpu) == fewest) {
      least_loaded.push_back(cpu);
    }
  }
  std::size_t fewest_on_package = std::numeric_limits<std::size_t>::max();
  for (int cpu : least_loaded) {
    fewest_on_package = std::min(fewest_on_package, package_load(cpu));
  }
  std::vector<int> eligible;
  for (int cpu : least_loaded) {
    if (package_load(cpu) == fewest_on_package) {
      eligible.push_back(cpu);
    }
  }
  return eligible;
}

// The energy-aware pick: the eligible CPU whose runqueue power ratio with
// the new task added lies closest to the average ratio over all CPUs; the
// lowest id wins a tie.
int EnergyAwareReference(const BalanceEnv& env, double task_power) {
  const int n = static_cast<int>(env.topology().num_logical());
  double average = 0.0;
  for (int cpu = 0; cpu < n; ++cpu) {
    average += env.RunqueuePowerRatio(cpu);
  }
  average /= static_cast<double>(n);
  int best = -1;
  double best_distance = 0.0;
  for (int cpu : EligibleReference(env)) {
    const std::size_t count = env.runqueue(cpu).nr_running();
    const double queued = count == 0 ? 0.0 : env.RunqueuePower(cpu);
    const double with_task = (queued * static_cast<double>(count) + task_power) /
                             static_cast<double>(count + 1);
    const double distance = std::fabs(with_task / env.MaxPower(cpu) - average);
    if (best < 0 || distance < best_distance) {
      best = cpu;
      best_distance = distance;
    }
  }
  return best;
}

// Random runqueue states (a common floor of 0 or 1 tasks plus 0-2 more per
// CPU, some of them running), max powers from three coolers (so idle CPUs
// tie on distance), and about a quarter of the CPUs offline (never all);
// then both entry points against the reference. One InitialPlacement serves
// every trial, as one serves a whole run.
void CheckAgainstReference(const CpuTopology& topology, std::uint64_t seed) {
  Rng rng(seed);
  auto program = ProgramWithBinary(3);
  InitialPlacement placement;
  int ties = 0;
  int loaded_floors = 0;
  int with_offline = 0;
  for (int trial = 0; trial < 400; ++trial) {
    FakeEnv env(topology);
    const int n = static_cast<int>(topology.num_logical());
    const std::uint64_t floor = rng.NextBelow(2);
    for (int cpu = 0; cpu < n; ++cpu) {
      const std::uint64_t tasks = floor + rng.NextBelow(3);
      for (std::uint64_t t = 0; t < tasks; ++t) {
        const double power = 20.0 + 45.0 * rng.NextDouble();
        if (t == 0 && rng.NextBelow(2) == 0) {
          env.AddRunningTask(power, cpu);
        } else {
          env.AddTask(power, cpu);
        }
      }
      constexpr double kCoolers[] = {44.0, 60.0, 66.0};
      env.SetMaxPower(cpu, kCoolers[rng.NextBelow(3)]);
    }
    int online = n;
    for (int cpu = 0; cpu < n; ++cpu) {
      if (online > 1 && rng.NextBelow(4) == 0) {
        env.SetOnline(cpu, false);
        --online;
      }
    }
    const std::vector<int> eligible = EligibleReference(env);
    ASSERT_FALSE(eligible.empty());
    ties += eligible.size() > 1 ? 1 : 0;
    loaded_floors += env.runqueue(eligible.front()).nr_running() > 0 ? 1 : 0;
    with_offline += online < n ? 1 : 0;

    BinaryRegistry registry(40.0);
    const double task_power = 20.0 + 45.0 * rng.NextDouble();
    registry.RecordFirstTimeslice(3, task_power);
    Task task(1, program.get(), 1);
    EXPECT_EQ(placement.Place(task, env, registry), EnergyAwareReference(env, task_power))
        << "trial " << trial;
    EXPECT_DOUBLE_EQ(task.profile().power(), task_power);

    Rng draws(seed + static_cast<std::uint64_t>(trial));
    Rng reference_draws = draws;
    EXPECT_EQ(placement.PlaceBaseline(env, draws),
              eligible[reference_draws.NextBelow(eligible.size())])
        << "trial " << trial;
    EXPECT_EQ(draws.NextU64(), reference_draws.NextU64()) << "one draw per placement";
  }
  // The trials must reach every branch of the rule.
  EXPECT_GT(ties, 0);
  EXPECT_GT(loaded_floors, 0);
  EXPECT_GT(with_offline, 0);
}

TEST(InitialPlacementTest, BothEntryPointsMatchTheRuleOnSmtTopology) {
  CheckAgainstReference(CpuTopology::PaperXSeries445(true), 11);
}

TEST(InitialPlacementTest, BothEntryPointsMatchTheRuleOnDeepTopology) {
  CheckAgainstReference(
      CpuTopology({{"rack", 2}, {"board", 2}, {"package", 3}, {"smt", 3}}), 12);
}

}  // namespace
}  // namespace eas
