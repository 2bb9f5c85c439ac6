// FaultPlan parsing: the chaos layer's data model. Plans are pure data
// validated against a topology, churn expansion is a function of the spec
// text alone, and every malformed spec is rejected with a diagnostic naming
// the offending clause.

#include "src/fault/fault_plan.h"

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

namespace eas {
namespace {

CpuTopology SmallTopology() { return CpuTopology(1, 2, 1); }  // 2 logical, 2 packages

std::string MustFail(const std::string& spec) {
  std::string error;
  const auto plan = ParseFaultPlan(spec, SmallTopology(), &error);
  EXPECT_FALSE(plan.has_value()) << spec << " parsed unexpectedly";
  EXPECT_FALSE(error.empty()) << spec << " failed without a diagnostic";
  return error;
}

TEST(FaultPlanTest, EmptyAndNoneParseToAnEmptyPlan) {
  std::string error;
  for (const char* spec : {"", "none"}) {
    const auto plan = ParseFaultPlan(spec, SmallTopology(), &error);
    ASSERT_TRUE(plan.has_value()) << error;
    EXPECT_TRUE(plan->empty());
  }
}

TEST(FaultPlanTest, ParsesEveryClauseKind) {
  std::string error;
  const auto plan =
      ParseFaultPlan("off:1@5,on:1@10,spike:0@6:12.5:100,clamp:1@7:3:50", SmallTopology(),
                     &error);
  ASSERT_TRUE(plan.has_value()) << error;
  ASSERT_EQ(plan->events.size(), 4u);

  EXPECT_EQ(plan->events[0].kind, FaultKind::kCpuOffline);
  EXPECT_EQ(plan->events[0].cpu, 1);
  EXPECT_EQ(plan->events[0].tick, 5);

  EXPECT_EQ(plan->events[1].kind, FaultKind::kCpuOnline);
  EXPECT_EQ(plan->events[1].cpu, 1);
  EXPECT_EQ(plan->events[1].tick, 10);

  EXPECT_EQ(plan->events[2].kind, FaultKind::kThermalSpike);
  EXPECT_EQ(plan->events[2].package, 0u);
  EXPECT_EQ(plan->events[2].tick, 6);
  EXPECT_DOUBLE_EQ(plan->events[2].delta_c, 12.5);
  EXPECT_EQ(plan->events[2].duration, 100);

  EXPECT_EQ(plan->events[3].kind, FaultKind::kPStateClamp);
  EXPECT_EQ(plan->events[3].package, 1u);
  EXPECT_EQ(plan->events[3].tick, 7);
  EXPECT_EQ(plan->events[3].floor, 3u);
  EXPECT_EQ(plan->events[3].duration, 50);
}

TEST(FaultPlanTest, SameTickClausesKeepSpecOrder) {
  // The engine queues events keyed (tick, position), so the vector order of
  // same-tick clauses is the injection order.
  std::string error;
  const auto plan = ParseFaultPlan("on:0@7,off:1@7,spike:0@7:5:10", SmallTopology(), &error);
  ASSERT_TRUE(plan.has_value()) << error;
  ASSERT_EQ(plan->events.size(), 3u);
  EXPECT_EQ(plan->events[0].kind, FaultKind::kCpuOnline);
  EXPECT_EQ(plan->events[1].kind, FaultKind::kCpuOffline);
  EXPECT_EQ(plan->events[2].kind, FaultKind::kThermalSpike);
}

TEST(FaultPlanTest, ChurnExpandsDeterministically) {
  // The same churn clause must expand to the identical schedule on every
  // parse: the expansion draws only from Rng(seed), never shared state.
  std::string error;
  const auto first = ParseFaultPlan("churn:6@1000:42", SmallTopology(), &error);
  ASSERT_TRUE(first.has_value()) << error;
  const auto second = ParseFaultPlan("churn:6@1000:42", SmallTopology(), &error);
  ASSERT_TRUE(second.has_value()) << error;

  ASSERT_EQ(first->events.size(), 12u);  // 6 offline/online pairs
  ASSERT_EQ(second->events.size(), first->events.size());
  for (std::size_t i = 0; i < first->events.size(); ++i) {
    const FaultEvent& a = first->events[i];
    const FaultEvent& b = second->events[i];
    EXPECT_EQ(a.kind, b.kind) << i;
    EXPECT_EQ(a.cpu, b.cpu) << i;
    EXPECT_EQ(a.tick, b.tick) << i;
  }
  // Each pair: a valid-CPU offline inside the horizon, then its online
  // strictly after.
  for (std::size_t i = 0; i < first->events.size(); i += 2) {
    const FaultEvent& off = first->events[i];
    const FaultEvent& on = first->events[i + 1];
    EXPECT_EQ(off.kind, FaultKind::kCpuOffline);
    EXPECT_EQ(on.kind, FaultKind::kCpuOnline);
    EXPECT_EQ(on.cpu, off.cpu);
    EXPECT_GE(off.cpu, 0);
    EXPECT_LT(off.cpu, 2);
    EXPECT_GE(off.tick, 1);
    EXPECT_LE(off.tick, 1000);
    EXPECT_GT(on.tick, off.tick);
  }
}

TEST(FaultPlanTest, DifferentChurnSeedsDiffer) {
  std::string error;
  const auto a = ParseFaultPlan("churn:8@5000:1", SmallTopology(), &error);
  ASSERT_TRUE(a.has_value()) << error;
  const auto b = ParseFaultPlan("churn:8@5000:2", SmallTopology(), &error);
  ASSERT_TRUE(b.has_value()) << error;
  bool any_difference = false;
  for (std::size_t i = 0; i < a->events.size(); ++i) {
    if (a->events[i].tick != b->events[i].tick || a->events[i].cpu != b->events[i].cpu) {
      any_difference = true;
      break;
    }
  }
  EXPECT_TRUE(any_difference) << "seeds 1 and 2 expanded to the same schedule";
}

TEST(FaultPlanTest, RejectsMalformedSpecsNamingTheClause) {
  EXPECT_NE(MustFail("off:9@5").find("off:9@5"), std::string::npos);           // cpu range
  EXPECT_NE(MustFail("spike:7@5:10:10").find("package"), std::string::npos);   // pkg range
  EXPECT_NE(MustFail("off:0@-3").find("tick"), std::string::npos);             // bad tick
  EXPECT_NE(MustFail("spike:0@5:10:0").find("duration"), std::string::npos);   // dur >= 1
  EXPECT_NE(MustFail("clamp:0@5:2:0").find("duration"), std::string::npos);
  EXPECT_NE(MustFail("spike:0@5:nan:10").find("spike"), std::string::npos);    // finite only
  EXPECT_NE(MustFail("frobnicate:0@5").find("frobnicate"), std::string::npos); // unknown kind
  MustFail("off:0@5,,on:0@9");                                                 // empty clause
  MustFail("off:0");                                                           // missing @tick
  MustFail("churn:0@100:7");                                                   // count >= 1
  MustFail("churn:3@1:7");                                                     // horizon >= 2
}

TEST(FaultPlanTest, NumbersTakeTheSharedValueRules) {
  // Integers are an optional '-' and digits, with no '+' or space.
  EXPECT_EQ(MustFail("off:+1@5"), "clause 'off:+1@5': expected <cpu>@<tick>");
  EXPECT_EQ(MustFail("spike:0@ 10:5:5"),
            "clause 'spike:0@ 10:5:5': expected <pkg>@<tick>:<arg>:<dur>");
  MustFail("on:1 @5");
  MustFail("churn:3@100:+7");
  // The spike delta is a finite number in strtod syntax, whole.
  MustFail("spike:0@5: 12:10");
  MustFail("spike:0@5:1e999:10");
  std::string error;
  const auto plan = ParseFaultPlan("spike:0@5:+1.5e1:10,churn:1@100:-7", SmallTopology(), &error);
  ASSERT_TRUE(plan.has_value()) << error;
  EXPECT_EQ(plan->events[0].delta_c, 15.0);
}

TEST(FaultPlanTest, RejectsPlansPastTheEventLimitBeforeExpanding) {
  // A huge churn count is refused before a single pair is drawn, with a
  // diagnostic that names the clause and the limit.
  const std::string limit = std::to_string(kMaxFaultPlanEvents);
  const std::string huge = MustFail("churn:100000000000@1000:1");
  EXPECT_NE(huge.find("churn:100000000000@1000:1"), std::string::npos) << huge;
  EXPECT_NE(huge.find(limit), std::string::npos) << huge;
  MustFail("churn:9223372036854775807@1000:1");

  // The limit is on the whole plan: clauses that fit alone add up past it.
  const std::string half = "churn:" + std::to_string(kMaxFaultPlanEvents / 2) + "@1000:";
  std::string error;
  const auto full = ParseFaultPlan(half + "1", SmallTopology(), &error);
  ASSERT_TRUE(full.has_value()) << error;
  EXPECT_EQ(full->events.size(), kMaxFaultPlanEvents);
  EXPECT_NE(MustFail(half + "1,off:0@5").find(limit), std::string::npos);
  EXPECT_NE(MustFail("off:0@5," + half + "1").find(limit), std::string::npos);
  EXPECT_NE(MustFail(half + "1," + half + "2").find(half + "2"), std::string::npos);
}

TEST(FaultPlanTest, RejectsWindowsPastTheTickRange) {
  // spike/clamp close their window at tick + dur; it must fit in a Tick.
  for (const char* spec : {"spike:0@5:10:9223372036854775807",
                           "clamp:1@1:2:9223372036854775807",
                           "spike:0@9223372036854775807:10:1"}) {
    const std::string error = MustFail(spec);
    EXPECT_NE(error.find(spec), std::string::npos) << error;
    EXPECT_NE(error.find("overflow"), std::string::npos) << error;
  }
  std::string error;
  const auto widest =
      ParseFaultPlan("spike:0@5:10:9223372036854775802,clamp:1@9223372036854775806:2:1",
                     SmallTopology(), &error);
  ASSERT_TRUE(widest.has_value()) << error;
  EXPECT_EQ(widest->events[0].tick + widest->events[0].duration, INT64_MAX);
  EXPECT_EQ(widest->events[1].tick + widest->events[1].duration, INT64_MAX);

  // churn's latest possible online event is horizon + horizon/4 + 1.
  const std::string churn = MustFail("churn:50@9223372036854775807:1");
  EXPECT_NE(churn.find("churn:50@9223372036854775807:1"), std::string::npos) << churn;
  MustFail("churn:50@7378697629483820646:1");
  const auto latest = ParseFaultPlan("churn:50@7378697629483820645:1", SmallTopology(), &error);
  ASSERT_TRUE(latest.has_value()) << error;
  for (std::size_t i = 0; i < latest->events.size(); i += 2) {
    EXPECT_GE(latest->events[i].tick, 1) << i;
    EXPECT_GT(latest->events[i + 1].tick, latest->events[i].tick) << i;
  }
}

TEST(FaultPlanTest, GrammarDocumentsEveryClauseKind) {
  const std::string grammar = FaultPlanGrammar();
  for (const char* kind : {"off:", "on:", "spike:", "clamp:", "churn:", "none"}) {
    EXPECT_NE(grammar.find(kind), std::string::npos) << kind;
  }
  // ...and both limits.
  EXPECT_NE(grammar.find(std::to_string(kMaxFaultPlanEvents)), std::string::npos);
  EXPECT_NE(grammar.find("horizon + horizon/4 + 1"), std::string::npos);
}

}  // namespace
}  // namespace eas
