#include "src/topo/cpu_topology.h"

#include <gtest/gtest.h>

namespace eas {
namespace {

TEST(CpuTopologyTest, PaperMachineSmtOff) {
  const CpuTopology topo = CpuTopology::PaperXSeries445(false);
  EXPECT_EQ(topo.num_nodes(), 2u);
  EXPECT_EQ(topo.num_physical(), 8u);
  EXPECT_EQ(topo.num_logical(), 8u);
}

TEST(CpuTopologyTest, PaperMachineSmtOn) {
  const CpuTopology topo = CpuTopology::PaperXSeries445(true);
  EXPECT_EQ(topo.num_logical(), 16u);
  EXPECT_EQ(topo.smt_per_physical(), 2u);
}

TEST(CpuTopologyTest, SiblingIdsDifferInMsb) {
  // Paper Section 6.4: "CPU 0 is the sibling of CPU 8, CPU 1 of CPU 9, ..."
  const CpuTopology topo = CpuTopology::PaperXSeries445(true);
  for (int cpu = 0; cpu < 8; ++cpu) {
    const auto siblings = topo.SiblingsOf(cpu);
    ASSERT_EQ(siblings.size(), 2u);
    EXPECT_EQ(siblings[0], cpu);
    EXPECT_EQ(siblings[1], cpu + 8);
    EXPECT_TRUE(topo.AreSiblings(cpu, cpu + 8));
  }
}

TEST(CpuTopologyTest, NodeAssignment) {
  // CPUs 0-3 (+ siblings 8-11) on node 0; 4-7 (+ 12-15) on node 1.
  const CpuTopology topo = CpuTopology::PaperXSeries445(true);
  for (int cpu : {0, 1, 2, 3, 8, 9, 10, 11}) {
    EXPECT_EQ(topo.NodeOf(cpu), 0u) << "cpu " << cpu;
  }
  for (int cpu : {4, 5, 6, 7, 12, 13, 14, 15}) {
    EXPECT_EQ(topo.NodeOf(cpu), 1u) << "cpu " << cpu;
  }
}

TEST(CpuTopologyTest, LogicalIdRoundTrip) {
  const CpuTopology topo = CpuTopology::PaperXSeries445(true);
  for (std::size_t phys = 0; phys < topo.num_physical(); ++phys) {
    for (std::size_t t = 0; t < topo.smt_per_physical(); ++t) {
      const int logical = topo.LogicalId(phys, t);
      EXPECT_EQ(topo.PhysicalOf(logical), phys);
      EXPECT_EQ(topo.ThreadOf(logical), t);
    }
  }
}

TEST(CpuTopologyTest, SameNodeSymmetric) {
  const CpuTopology topo = CpuTopology::PaperXSeries445(false);
  EXPECT_TRUE(topo.SameNode(0, 3));
  EXPECT_TRUE(topo.SameNode(4, 7));
  EXPECT_FALSE(topo.SameNode(3, 4));
  EXPECT_FALSE(topo.SameNode(4, 3));
}

TEST(CpuTopologyTest, SingleCpuDegenerate) {
  const CpuTopology topo(1, 1, 1);
  EXPECT_EQ(topo.num_logical(), 1u);
  EXPECT_EQ(topo.SiblingsOf(0).size(), 1u);
  EXPECT_TRUE(topo.AreSiblings(0, 0));
}

TEST(CpuTopologyTest, SmtOffEveryCpuOwnSibling) {
  const CpuTopology topo = CpuTopology::PaperXSeries445(false);
  for (int cpu = 0; cpu < 8; ++cpu) {
    EXPECT_EQ(topo.SiblingsOf(cpu).size(), 1u);
    for (int other = 0; other < 8; ++other) {
      EXPECT_EQ(topo.AreSiblings(cpu, other), cpu == other);
    }
  }
}


TEST(ParseTopologySpecTest, AcceptsValidSpecs) {
  std::string error;
  const auto paper = ParseTopologySpec("2:4:2", &error);
  ASSERT_TRUE(paper.has_value()) << error;
  EXPECT_EQ(paper->num_nodes(), 2u);
  EXPECT_EQ(paper->physical_per_node(), 4u);
  EXPECT_EQ(paper->smt_per_physical(), 2u);
  EXPECT_EQ(paper->num_logical(), 16u);
  const auto tiny = ParseTopologySpec("1:1:1", nullptr);
  ASSERT_TRUE(tiny.has_value());
  EXPECT_EQ(tiny->num_logical(), 1u);
}

TEST(ParseTopologySpecTest, RejectsMalformedSpecs) {
  // The historical bug: "junk:0:x" went through atoi and produced a 0-CPU
  // machine. Every width must be a strictly positive integer.
  for (const char* bad :
       {"junk:0:x", "", "8", "0:4:1", "2:0:1", "2:4:0", "-2:4:1", "2:4:x",
        "2: 4:1", "2:4:1x", "+2:4:1", "9999999999:1:1", "4:0:2:4:2", "=4:2",
        "1:1:1:1:1:1:1:1:1", "1024:1024:2"}) {
    std::string error;
    EXPECT_FALSE(ParseTopologySpec(bad, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(ParseTopologySpecTest, ErrorNamesTheBadTokenAndPosition) {
  std::string error;
  EXPECT_FALSE(ParseTopologySpec("2:0:1", &error).has_value());
  EXPECT_NE(error.find("physical-per-node"), std::string::npos) << error;
  EXPECT_NE(error.find("\"0\""), std::string::npos) << error;
  EXPECT_NE(error.find("level 2"), std::string::npos) << error;
  EXPECT_FALSE(ParseTopologySpec("2:4:x", &error).has_value());
  EXPECT_NE(error.find("smt"), std::string::npos) << error;
  EXPECT_NE(error.find("level 3"), std::string::npos) << error;
  EXPECT_FALSE(ParseTopologySpec("8", &error).has_value());
  EXPECT_NE(error.find("nodes:physical-per-node:smt"), std::string::npos) << error;
  EXPECT_FALSE(ParseTopologySpec("4:8:0:4:2", &error).has_value());
  EXPECT_NE(error.find("level 3"), std::string::npos) << error;
  EXPECT_NE(error.find("\"0\""), std::string::npos) << error;
}

TEST(ParseTopologySpecTest, AcceptsDeepLevelLists) {
  std::string error;
  const auto deep = ParseTopologySpec("4:8:2:4:2", &error);
  ASSERT_TRUE(deep.has_value()) << error;
  EXPECT_EQ(deep->num_levels(), 5u);
  EXPECT_EQ(deep->num_physical(), 4u * 8u * 2u * 4u);
  EXPECT_EQ(deep->num_logical(), 4u * 8u * 2u * 4u * 2u);
  EXPECT_EQ(deep->smt_per_physical(), 2u);
  // "node" stays the level just above the package level.
  EXPECT_EQ(deep->physical_per_node(), 4u);
  EXPECT_EQ(deep->num_nodes(), 4u * 8u * 2u);

  // Two-level specs are the minimal form: packages x smt.
  const auto flat = ParseTopologySpec("2:4", &error);
  ASSERT_TRUE(flat.has_value()) << error;
  EXPECT_EQ(flat->num_levels(), 2u);
  EXPECT_EQ(flat->num_physical(), 2u);
  EXPECT_EQ(flat->num_logical(), 8u);

  // A trailing :1 SMT level keeps the same machine as the 3-level form.
  const auto padded = ParseTopologySpec("2:4:1:1", &error);
  ASSERT_TRUE(padded.has_value()) << error;
  EXPECT_EQ(padded->num_physical(), 8u);
  EXPECT_EQ(padded->num_logical(), 8u);
}

TEST(ParseTopologySpecTest, AcceptsNamedLevels) {
  std::string error;
  const auto named = ParseTopologySpec("rack=2:board=4:socket=2:package=4:smt=2", &error);
  ASSERT_TRUE(named.has_value()) << error;
  ASSERT_EQ(named->num_levels(), 5u);
  EXPECT_EQ(named->levels()[0].name, "rack");
  EXPECT_EQ(named->levels()[3].name, "package");
  EXPECT_EQ(named->num_logical(), 2u * 4u * 2u * 4u * 2u);
}

TEST(ParseTopologySpecTest, DefaultLevelNamesByDepth) {
  std::string error;
  const auto deep = ParseTopologySpec("4:8:2:4:2", &error);
  ASSERT_TRUE(deep.has_value()) << error;
  EXPECT_EQ(deep->levels()[0].name, "rack");
  EXPECT_EQ(deep->levels()[1].name, "board");
  EXPECT_EQ(deep->levels()[2].name, "node");
  EXPECT_EQ(deep->levels()[3].name, "package");
  EXPECT_EQ(deep->levels()[4].name, "smt");
  const auto grid = ParseTopologySpec("2:4:2", &error);
  ASSERT_TRUE(grid.has_value()) << error;
  EXPECT_EQ(grid->levels()[0].name, "node");
}

TEST(CpuTopologyTest, DeepTreeUnitIndexing) {
  // 2 racks x 2 boards x 2 packages x 2 smt = 8 packages, 16 logical.
  std::string error;
  const auto topo = ParseTopologySpec("2:2:2:2", &error);
  ASSERT_TRUE(topo.has_value()) << error;
  EXPECT_EQ(topo->PackagesPerUnit(0), 4u);  // packages per rack
  EXPECT_EQ(topo->PackagesPerUnit(1), 2u);  // packages per board
  EXPECT_EQ(topo->PackagesPerUnit(2), 1u);
  EXPECT_EQ(topo->UnitsAtLevel(0), 2u);
  EXPECT_EQ(topo->UnitsAtLevel(1), 4u);
  EXPECT_EQ(topo->UnitsAtLevel(2), 8u);
  // Sibling numbering is unchanged by depth: logical = t * num_physical + p.
  EXPECT_EQ(topo->LogicalId(5, 1), 13);
  EXPECT_TRUE(topo->AreSiblings(5, 13));
}

TEST(CpuTopologyTest, DeepButNarrowTree) {
  std::string error;
  const auto topo = ParseTopologySpec("1:1:1:1:8", &error);
  ASSERT_TRUE(topo.has_value()) << error;
  EXPECT_EQ(topo->num_physical(), 1u);
  EXPECT_EQ(topo->num_logical(), 8u);
  EXPECT_EQ(topo->smt_per_physical(), 8u);
  EXPECT_EQ(topo->SiblingsOf(0).size(), 8u);
  EXPECT_TRUE(topo->SameNode(0, 7));
}

}  // namespace
}  // namespace eas
