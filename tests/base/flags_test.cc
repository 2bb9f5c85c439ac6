#include "src/base/flags.h"

#include <gtest/gtest.h>

namespace eas {
namespace {

FlagParser Parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  for (const char* arg : args) {
    argv.push_back(arg);
  }
  return FlagParser(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, EqualsForm) {
  const FlagParser flags = Parse({"--policy=eas", "--duration-s=120"});
  EXPECT_EQ(flags.GetString("policy"), "eas");
  EXPECT_EQ(flags.GetString("duration-s"), "120");
}

TEST(FlagsTest, SpaceForm) {
  const FlagParser flags = Parse({"--policy", "baseline", "--seed", "7"});
  EXPECT_EQ(flags.GetString("policy"), "baseline");
  EXPECT_EQ(flags.GetInt("seed", 0), 7);
}

TEST(FlagsTest, BareSwitch) {
  const FlagParser flags = Parse({"--throttle", "--policy=eas"});
  EXPECT_TRUE(flags.Has("throttle"));
  EXPECT_EQ(flags.GetString("throttle", "absent"), "");
  EXPECT_FALSE(flags.Has("verbose"));
}

TEST(FlagsTest, SwitchBeforeAnotherFlag) {
  // "--throttle --policy eas": throttle must not eat "--policy".
  const FlagParser flags = Parse({"--throttle", "--policy", "eas"});
  EXPECT_TRUE(flags.Has("throttle"));
  EXPECT_EQ(flags.GetString("throttle"), "");
  EXPECT_EQ(flags.GetString("policy"), "eas");
}

TEST(FlagsTest, Fallbacks) {
  const FlagParser flags = Parse({});
  EXPECT_EQ(flags.GetString("missing", "dflt"), "dflt");
  EXPECT_FALSE(flags.Has("missing"));
  EXPECT_EQ(flags.GetInt("missing", -2), -2);
}

TEST(FlagsTest, Positional) {
  const FlagParser flags = Parse({"run", "--policy=eas", "fast"});
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "run");
  EXPECT_EQ(flags.positional()[1], "fast");
}

TEST(FlagsTest, UnknownFlagsNamesStrays) {
  const FlagParser flags = Parse({"--policy=eas", "--polcy=oops", "--zeed", "7"});
  const auto unknown = flags.UnknownFlags({"policy", "seed"});
  ASSERT_EQ(unknown.size(), 2u);
  EXPECT_EQ(unknown[0], "polcy");  // sorted (map order)
  EXPECT_EQ(unknown[1], "zeed");
  EXPECT_TRUE(Parse({"--policy=eas"}).UnknownFlags({"policy"}).empty());
  EXPECT_TRUE(Parse({}).UnknownFlags({}).empty());
}

TEST(FlagsTest, RepeatedFlagsNamesRepeats) {
  const FlagParser flags =
      Parse({"--seed", "1", "--jsonl=a.jsonl", "--seed=2", "--jsonl", "b.jsonl", "--plot", "--plot"});
  EXPECT_EQ(flags.RepeatedFlags(), (std::vector<std::string>{"jsonl", "plot", "seed"}));
  EXPECT_EQ(flags.GetInt("seed", 0), 2);  // the accessors keep the last value
  EXPECT_EQ(flags.GetString("jsonl"), "b.jsonl");
  EXPECT_TRUE(Parse({"--seed", "1", "--jsonl=a.jsonl"}).RepeatedFlags().empty());
}

}  // namespace
}  // namespace eas
