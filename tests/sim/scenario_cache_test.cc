// ScenarioCache: the warm-service memoization of scenario builds and the
// default program library. The safety argument it rests on - factories are
// deterministic and spec copies share immutable programs - is what these
// tests pin: cached and fresh builds are interchangeable, sharing is real
// (one underlying build), and the hit/miss counters feeding the status
// endpoint count what actually happened.

#include "src/sim/scenario_cache.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace eas {
namespace {

TEST(ScenarioCacheTest, BuildsOncePerNameAndShares) {
  ScenarioCache cache;
  const auto first = cache.Scenario("paper-mixed");
  const auto again = cache.Scenario("paper-mixed");
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first.get(), again.get());  // the same build, not an equal one

  const auto other = cache.Scenario("paper-hot-task");
  EXPECT_NE(other.get(), first.get());

  const ScenarioCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.scenario_misses, 2u);
  EXPECT_EQ(stats.scenario_hits, 1u);
}

TEST(ScenarioCacheTest, CachedSpecMatchesAFreshRegistryBuild) {
  ScenarioCache cache;
  const auto cached = cache.Scenario("paper-hot-task");
  const ExperimentSpec fresh_spec = ScenarioRegistry::Global().BuildOrThrow("paper-hot-task");
  // Deterministic factory: same spec every build.
  const ExperimentSpec& cached_spec = *cached;
  EXPECT_EQ(cached_spec.name, fresh_spec.name);
  EXPECT_EQ(cached_spec.workload.size(), fresh_spec.workload.size());
  EXPECT_EQ(cached_spec.config.explicit_max_power_physical,
            fresh_spec.config.explicit_max_power_physical);
  EXPECT_EQ(cached_spec.config.throttling_enabled, fresh_spec.config.throttling_enabled);
  EXPECT_EQ(cached_spec.options.duration_ticks, fresh_spec.options.duration_ticks);
}

TEST(ScenarioCacheTest, UnknownScenarioThrowsTheRegistryDiagnostic) {
  ScenarioCache cache;
  EXPECT_THROW(cache.Scenario("no-such-scenario"), std::invalid_argument);
}

TEST(ScenarioCacheTest, DefaultLibraryIsBuiltOnceAndShared) {
  ScenarioCache cache;
  const EnergyModel model = EnergyModel::Default();
  const auto first = cache.DefaultLibrary(model);
  const auto again = cache.DefaultLibrary(model);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first.get(), again.get());

  const ScenarioCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.library_misses, 1u);
  EXPECT_EQ(stats.library_hits, 1u);
}

TEST(ScenarioCacheTest, ConcurrentLookupsAgreeOnOneBuild) {
  // The service resolves requests from multiple connection threads against
  // one cache; every thread must end up with the same shared build.
  ScenarioCache cache;
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const ExperimentSpec>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&cache, &seen, i] { seen[i] = cache.Scenario("paper-mixed"); });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(seen[i].get(), seen[0].get());
  }
  const ScenarioCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.scenario_misses, 1u);
  EXPECT_EQ(stats.scenario_hits + stats.scenario_misses, static_cast<std::size_t>(kThreads));
}

}  // namespace
}  // namespace eas
