#include "src/workloads/workload_builder.h"

#include <gtest/gtest.h>

namespace eas {
namespace {

class WorkloadBuilderTest : public ::testing::Test {
 protected:
  WorkloadBuilderTest() : model_(EnergyModel::Default()), library_(model_) {}
  EnergyModel model_;
  ProgramLibrary library_;
};

TEST_F(WorkloadBuilderTest, MixedInterleavesPrograms) {
  const auto spawn = MixedWorkload(library_, 2);
  ASSERT_EQ(spawn.size(), 12u);
  // One full rotation of the six programs before any repeats.
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(spawn[static_cast<std::size_t>(i)], spawn[static_cast<std::size_t>(i + 6)]);
  }
}

TEST_F(WorkloadBuilderTest, MixedZeroInstancesEmpty) {
  EXPECT_TRUE(MixedWorkload(library_, 0).empty());
}

TEST_F(WorkloadBuilderTest, HomogeneityInterleavesClasses) {
  const auto spawn = HomogeneityWorkload(library_, 2, 2, 2);
  ASSERT_EQ(spawn.size(), 6u);
  // Round-robin: memrw, pushpop, bitcnts, memrw, pushpop, bitcnts.
  EXPECT_EQ(spawn[0], &library_.memrw());
  EXPECT_EQ(spawn[1], &library_.pushpop());
  EXPECT_EQ(spawn[2], &library_.bitcnts());
  EXPECT_EQ(spawn[3], &library_.memrw());
}

TEST_F(WorkloadBuilderTest, HomogeneityHandlesUnevenCounts) {
  const auto spawn = HomogeneityWorkload(library_, 0, 18, 0);
  EXPECT_EQ(spawn.size(), 18u);
  for (const Program* p : spawn) {
    EXPECT_EQ(p, &library_.pushpop());
  }
}

TEST_F(WorkloadBuilderTest, HomogeneityExhaustsLongestTail) {
  const auto spawn = HomogeneityWorkload(library_, 1, 0, 4);
  ASSERT_EQ(spawn.size(), 5u);
  EXPECT_EQ(spawn[0], &library_.memrw());
  EXPECT_EQ(spawn[1], &library_.bitcnts());
  EXPECT_EQ(spawn[4], &library_.bitcnts());
}

TEST_F(WorkloadBuilderTest, HotTaskWorkloadSizes) {
  EXPECT_TRUE(HotTaskWorkload(library_, 0).empty());
  EXPECT_EQ(HotTaskWorkload(library_, 8).size(), 8u);
}

TEST_F(WorkloadBuilderTest, ParseSpecMixed) {
  EXPECT_EQ(ParseWorkloadSpec("mixed:2", library_).size(), 12u);
  EXPECT_EQ(ParseWorkloadSpec("mixed", library_).size(), 18u);  // default 3
}

TEST_F(WorkloadBuilderTest, ParseSpecHomog) {
  const auto spawn = ParseWorkloadSpec("homog:8,2,8", library_);
  EXPECT_EQ(spawn.size(), 18u);
  EXPECT_TRUE(ParseWorkloadSpec("homog:8,2", library_).empty());  // malformed
  EXPECT_TRUE(ParseWorkloadSpec("homog:-1,2,3", library_).empty());
}

TEST_F(WorkloadBuilderTest, ParseSpecHotAndShort) {
  EXPECT_EQ(ParseWorkloadSpec("hot:4", library_).size(), 4u);
  EXPECT_EQ(ParseWorkloadSpec("hot", library_).size(), 1u);
  const auto shorts = ParseWorkloadSpec("short:6", library_);
  ASSERT_EQ(shorts.size(), 6u);
  EXPECT_EQ(shorts[0], &library_.short_hot());
  EXPECT_EQ(shorts[1], &library_.short_cool());
}

TEST_F(WorkloadBuilderTest, ParseSpecList) {
  const auto spawn = ParseWorkloadSpec("list:bitcnts*2,memrw,sshd*3", library_);
  ASSERT_EQ(spawn.size(), 6u);
  EXPECT_EQ(spawn[0], &library_.bitcnts());
  EXPECT_EQ(spawn[1], &library_.bitcnts());
  EXPECT_EQ(spawn[2], &library_.memrw());
  EXPECT_EQ(spawn[3], &library_.sshd());
  EXPECT_EQ(spawn[5], &library_.sshd());
}

TEST_F(WorkloadBuilderTest, ParseSpecListRejectsMalformed) {
  EXPECT_TRUE(ParseWorkloadSpec("list:", library_).empty());
  EXPECT_TRUE(ParseWorkloadSpec("list:nosuchprogram", library_).empty());
  EXPECT_TRUE(ParseWorkloadSpec("list:bitcnts*", library_).empty());
  EXPECT_TRUE(ParseWorkloadSpec("list:bitcnts*0", library_).empty());
  EXPECT_TRUE(ParseWorkloadSpec("list:bitcnts*x", library_).empty());
  EXPECT_TRUE(ParseWorkloadSpec("list:bitcnts,,memrw", library_).empty());
  // Overflowing / absurd repeat counts are rejected, not wrapped or OOMed.
  EXPECT_TRUE(ParseWorkloadSpec("list:bitcnts*8589934593", library_).empty());  // 2^33+1
  EXPECT_TRUE(ParseWorkloadSpec("list:bitcnts*99999999999999999999", library_).empty());
  EXPECT_TRUE(ParseWorkloadSpec("list:bitcnts*2000000000", library_).empty());
}

TEST_F(WorkloadBuilderTest, ParseSpecCountsAreDigitsOnly) {
  for (const char* spec : {"mixed:3x", "hot:2.9", "homog:1,1,1junk", "short: 4", "mixed:+3",
                           "hot:-1", "homog:1,,1", "homog:1,1,1,", "list:bitcnts*+2"}) {
    EXPECT_TRUE(ParseWorkloadSpec(spec, library_).empty()) << spec;
  }
  // An empty count keeps its default.
  EXPECT_EQ(ParseWorkloadSpec("mixed:", library_), MixedWorkload(library_, 3));
  EXPECT_EQ(ParseWorkloadSpec("hot:", library_), HotTaskWorkload(library_, 1));
  EXPECT_EQ(ParseWorkloadSpec("short:", library_).size(), 16u);
  EXPECT_EQ(ParseWorkloadSpec("mixed:3", library_), MixedWorkload(library_, 3));
  EXPECT_EQ(ParseWorkloadSpec("homog:4,4,4", library_), HomogeneityWorkload(library_, 4, 4, 4));
}

TEST_F(WorkloadBuilderTest, ParseSpecBoundsTheWholeSpawnList) {
  // At most 1,000,000 tasks per spec, counted before the list is built.
  for (const char* spec : {"mixed:166667", "hot:1000001", "short:1000001",
                           "homog:500000,500000,1", "list:bitcnts*600000,memrw*600000",
                           "list:bitcnts*1000000,memrw"}) {
    EXPECT_TRUE(ParseWorkloadSpec(spec, library_).empty()) << spec;
  }
  EXPECT_EQ(ParseWorkloadSpec("mixed:166666", library_).size(), 999'996u);
  EXPECT_EQ(ParseWorkloadSpec("list:bitcnts*999999,memrw", library_).size(), 1'000'000u);
}

TEST_F(WorkloadBuilderTest, ParseSpecRejectsUnknown) {
  EXPECT_TRUE(ParseWorkloadSpec("bogus:3", library_).empty());
  EXPECT_TRUE(ParseWorkloadSpec("", library_).empty());
}

}  // namespace
}  // namespace eas
