// Workload container (arrival ordering, ownership) and the generator
// family: phase-shift programs, Poisson open-loop arrivals, trace playback.

#include "src/workloads/workload.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>

#include "src/workloads/generators.h"
#include "src/workloads/programs.h"

namespace eas {
namespace {

TEST(WorkloadTest, LegacyVectorArrivesAtTickZero) {
  const ProgramLibrary library(EnergyModel::Default());
  const Workload workload(std::vector<const Program*>{&library.bitcnts(), &library.memrw()});
  ASSERT_EQ(workload.size(), 2u);
  EXPECT_EQ(workload.InitialTasks(), 2u);
  EXPECT_EQ(workload.arrivals()[0].tick, 0);
  EXPECT_EQ(workload.arrivals()[0].program, &library.bitcnts());
}

TEST(WorkloadTest, ArrivalsSortedStable) {
  const ProgramLibrary library(EnergyModel::Default());
  Workload workload;
  workload.Add(library.bitcnts(), 500);
  workload.Add(library.memrw(), 0);
  workload.Add(library.pushpop(), 500);  // same tick: insertion order kept
  workload.Add(library.aluadd(), 100);
  const auto& arrivals = workload.arrivals();
  ASSERT_EQ(arrivals.size(), 4u);
  EXPECT_EQ(arrivals[0].program, &library.memrw());
  EXPECT_EQ(arrivals[1].program, &library.aluadd());
  EXPECT_EQ(arrivals[2].program, &library.bitcnts());
  EXPECT_EQ(arrivals[3].program, &library.pushpop());
  EXPECT_EQ(workload.InitialTasks(), 1u);
}

TEST(WorkloadTest, CopiesShareOwnedProgramsAndRetainedResources) {
  Workload copy;
  {
    auto library = std::make_shared<ProgramLibrary>(EnergyModel::Default());
    Workload original;
    original.Add(library->bitcnts(), 0);
    const Program* generated = original.Own(std::make_unique<Program>(
        "generated", 9001, std::vector<Phase>{Phase{}}, /*total_work_ticks=*/0));
    original.Add(*generated, 10);
    original.Retain(library);
    copy = original;
    // library and original go out of scope; the copy must stay valid.
  }
  ASSERT_EQ(copy.size(), 2u);
  EXPECT_EQ(copy.arrivals()[0].program->name(), "bitcnts");
  EXPECT_EQ(copy.arrivals()[1].program->name(), "generated");
}

TEST(GeneratorsTest, PhaseShiftAlternatesStartMix) {
  const EnergyModel model = EnergyModel::Default();
  const Workload workload = PhaseShiftWorkload(model);
  ASSERT_EQ(workload.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    const Program* program = workload.arrivals()[i].program;
    ASSERT_EQ(program->num_phases(), 2u);
    // Phases must actually shift the mix: phase powers differ by > 10 W.
    const double p0 = model.NominalTotalPower(program->phase(0).rates);
    const double p1 = model.NominalTotalPower(program->phase(1).rates);
    EXPECT_GT(std::abs(p0 - p1), 10.0);
    // Even tasks start hot, odd tasks start cool.
    if (i % 2 == 0) {
      EXPECT_GT(p0, p1);
    } else {
      EXPECT_LT(p0, p1);
    }
  }
}

TEST(GeneratorsTest, PoissonDeterministicPerSeedOpenLoop) {
  const ProgramLibrary library(EnergyModel::Default());
  PoissonOptions options;
  options.arrivals_per_second = 5.0;
  options.horizon_ticks = 100'000;  // 100 s -> ~500 arrivals
  options.initial_tasks = 2;
  options.seed = 11;
  const Workload a = PoissonWorkload(library.Table2Programs(), options);
  const Workload b = PoissonWorkload(library.Table2Programs(), options);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.arrivals().size(); ++i) {
    EXPECT_EQ(a.arrivals()[i].tick, b.arrivals()[i].tick);
    EXPECT_EQ(a.arrivals()[i].program, b.arrivals()[i].program);
  }
  // Open loop: arrivals keep coming over the whole horizon, at roughly the
  // requested rate (law of large numbers; the bound is generous).
  EXPECT_EQ(a.InitialTasks(), 2u);
  const std::size_t arrivals = a.size() - a.InitialTasks();
  EXPECT_GT(arrivals, 350u);
  EXPECT_LT(arrivals, 650u);
  EXPECT_GT(a.arrivals().back().tick, 80'000);
  // A different seed moves the arrival times.
  options.seed = 12;
  const Workload c = PoissonWorkload(library.Table2Programs(), options);
  bool any_difference = c.size() != a.size();
  for (std::size_t i = a.InitialTasks(); !any_difference && i < std::min(a.size(), c.size());
       ++i) {
    any_difference = a.arrivals()[i].tick != c.arrivals()[i].tick;
  }
  EXPECT_TRUE(any_difference);
}

TEST(GeneratorsTest, PoissonEmptyMixAndZeroRate) {
  const ProgramLibrary library(EnergyModel::Default());
  EXPECT_TRUE(PoissonWorkload({}, PoissonOptions{}).empty());
  PoissonOptions options;
  options.arrivals_per_second = 0.0;
  options.initial_tasks = 3;
  const Workload workload = PoissonWorkload(library.Table2Programs(), options);
  EXPECT_EQ(workload.size(), 3u);  // initial tasks only, no arrivals
}

TEST(GeneratorsTest, TraceParsesHeaderCommentsAndNice) {
  const ProgramLibrary library(EnergyModel::Default());
  Workload workload;
  std::string error;
  ASSERT_TRUE(ParseTraceWorkload(
      "tick,program,nice\n"
      "# warm floor\n"
      "0,memrw\n"
      "\n"
      "150, bitcnts , 5\n",
      library, &workload, &error))
      << error;
  ASSERT_EQ(workload.size(), 2u);
  EXPECT_EQ(workload.arrivals()[0].program, &library.memrw());
  EXPECT_EQ(workload.arrivals()[1].tick, 150);
  EXPECT_EQ(workload.arrivals()[1].program, &library.bitcnts());
  EXPECT_EQ(workload.arrivals()[1].nice, 5);
}

TEST(GeneratorsTest, TraceRejectsBadRows) {
  const ProgramLibrary library(EnergyModel::Default());
  Workload workload;
  std::string error;
  EXPECT_FALSE(ParseTraceWorkload("0,no_such_program\n", library, &workload, &error));
  EXPECT_NE(error.find("no_such_program"), std::string::npos);
  EXPECT_FALSE(ParseTraceWorkload("0,memrw\n-5,bitcnts\n", library, &workload, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos);
  EXPECT_FALSE(ParseTraceWorkload("0,memrw\nx,bitcnts\n", library, &workload, &error));
  EXPECT_FALSE(ParseTraceWorkload("0,memrw,1,extra\n", library, &workload, &error));
  EXPECT_FALSE(ParseTraceWorkload("0,memrw,99\n", library, &workload, &error));
  // A typoed tick in the FIRST row of a headerless trace must error, not be
  // silently swallowed as a "header".
  EXPECT_FALSE(ParseTraceWorkload("1O000,bitcnts\n0,memrw\n", library, &workload, &error));
  EXPECT_NE(error.find("line 1"), std::string::npos);
}

TEST(GeneratorsTest, TraceNumbersTakeTheSharedValueRules) {
  const ProgramLibrary library(EnergyModel::Default());
  Workload workload;
  std::string error;
  EXPECT_FALSE(ParseTraceWorkload("+5,bitcnts\n", library, &workload, &error));
  EXPECT_EQ(error, "line 1: bad tick \"+5\"");
  // Past int64: rejected, not saturated into an arrival that never spawns.
  EXPECT_FALSE(ParseTraceWorkload("99999999999999999999,bitcnts\n", library, &workload, &error));
  EXPECT_EQ(error, "line 1: bad tick \"99999999999999999999\"");
  EXPECT_FALSE(ParseTraceWorkload("0,memrw,+3\n", library, &workload, &error));
  EXPECT_EQ(error, "line 1: bad nice \"+3\"");
  // A trailing comma is an empty nice field, not a missing one.
  EXPECT_FALSE(ParseTraceWorkload("0,memrw,\n", library, &workload, &error));
  EXPECT_EQ(error, "line 1: bad nice \"\"");
  ASSERT_TRUE(ParseTraceWorkload("0,memrw,-20\r\n7 ,bitcnts\n", library, &workload, &error))
      << error;
  EXPECT_EQ(workload.arrivals()[0].nice, -20);
  EXPECT_EQ(workload.arrivals()[1].tick, 7);
}

TEST(GeneratorsTest, LoadTraceWorkloadRoundTrip) {
  const ProgramLibrary library(EnergyModel::Default());
  const std::string path = "/tmp/eas_workload_trace_test.csv";
  {
    std::ofstream out(path);
    out << "tick,program\n0,memrw\n1000,bitcnts\n";
  }
  Workload workload;
  std::string error;
  ASSERT_TRUE(LoadTraceWorkload(path, library, &workload, &error)) << error;
  EXPECT_EQ(workload.size(), 2u);
  std::remove(path.c_str());

  EXPECT_FALSE(LoadTraceWorkload("/nonexistent/trace.csv", library, &workload, &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

}  // namespace
}  // namespace eas
