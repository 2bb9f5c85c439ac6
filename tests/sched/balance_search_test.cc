// The one search every balancing policy is written over: Greatest and
// GreatestCpu break ties toward the lowest index, and NarrowDeep descends a
// deep hierarchy to the sub-group with the greatest key. The tie rule is
// part of the outputs: a search that let a later equal key win would move
// tasks elsewhere on every machine with two equally loaded groups.

#include <gtest/gtest.h>

#include <vector>

#include "src/sched/load_balancer.h"
#include "tests/testing/fake_env.h"

namespace eas {
namespace {

TEST(BalanceSearchTest, GreatestTakesTheFirstOfEqualKeys) {
  const std::vector<double> keys = {1.0, 3.0, 2.0, 3.0};
  const double* best = Greatest(keys, [](double k) { return k; });
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best - keys.data(), 1);

  const std::vector<double> flat = {5.0, 5.0, 5.0};
  EXPECT_EQ(Greatest(flat, [](double k) { return k; }), flat.data());
}

TEST(BalanceSearchTest, GreatestOfNothingIsNull) {
  const std::vector<CpuGroup> none;
  EXPECT_EQ(Greatest(none, [](const CpuGroup&) { return 1.0; }), nullptr);
}

TEST(BalanceSearchTest, GreatestCpuTakesTheLowestIndexOfEqualKeys) {
  const std::vector<int> cpus = {6, 4, 5, 7};
  EXPECT_EQ(GreatestCpu(cpus, [](int) { return 0.5; }), 6);
  EXPECT_EQ(GreatestCpu(cpus, [](int cpu) { return cpu == 5 || cpu == 7 ? 2 : 1; }), 5);
  EXPECT_EQ(GreatestCpu(std::vector<int>{}, [](int) { return 1; }), -1);
}

// Rack 1 of a 2x2x2x2 single-thread tree: cpus 8-15 under the root.
const CpuGroup& RemoteRack(const BalanceEnv& env) {
  const SchedDomain& top = *env.domains().StackFor(0).back().domain;
  return top.groups.back();
}

TEST(BalanceSearchTest, NarrowDeepDescendsToTheGreatestSubGroup) {
  FakeEnv env(CpuTopology({{"rack", 2}, {"board", 2}, {"node", 2}, {"package", 2}, {"smt", 1}}));
  ASSERT_GT(env.domains().num_levels(), 3u);
  const CpuGroup& rack = RemoteRack(env);
  ASSERT_TRUE(rack.Contains(8));
  env.AddTask(40.0, 13);
  env.AddTask(40.0, 13);
  env.AddTask(40.0, 10);

  auto load = [&env](const CpuGroup& g) { return LoadBalancer::GroupLoad(g, env); };
  const CpuGroup& busiest = NarrowDeep(rack, env, load);
  EXPECT_EQ(busiest.cpus, std::vector<int>{13});
  EXPECT_LT(busiest.child_domain, 0) << "the descent ends at a leaf group";
}

TEST(BalanceSearchTest, NarrowDeepBreaksTiesTowardTheFirstSubGroup) {
  FakeEnv env(CpuTopology({{"rack", 2}, {"board", 2}, {"node", 2}, {"package", 2}, {"smt", 1}}));
  const CpuGroup& idle = NarrowDeep(RemoteRack(env), env, [](const CpuGroup&) { return 0.0; });
  EXPECT_EQ(idle.cpus, std::vector<int>{8});
}

TEST(BalanceSearchTest, NarrowDeepKeepsClassicGroupsWhole) {
  // Three domain levels: the group is searched flat, as it always was.
  FakeEnv env(CpuTopology({{"rack", 2}, {"node", 2}, {"package", 2}, {"smt", 1}}));
  ASSERT_LE(env.domains().num_levels(), 3u);
  const CpuGroup& rack = RemoteRack(env);
  env.AddTask(40.0, 7);
  auto load = [&env](const CpuGroup& g) { return LoadBalancer::GroupLoad(g, env); };
  EXPECT_EQ(&NarrowDeep(rack, env, load), &rack);
}

}  // namespace
}  // namespace eas
