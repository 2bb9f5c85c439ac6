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
  EXPECT_DOUBLE_EQ(flags.GetDouble("duration-s", 0.0), 120.0);
}

TEST(FlagsTest, SpaceForm) {
  const FlagParser flags = Parse({"--policy", "baseline", "--seed", "7"});
  EXPECT_EQ(flags.GetString("policy"), "baseline");
  EXPECT_EQ(flags.GetInt("seed", 0), 7);
}

TEST(FlagsTest, BareSwitch) {
  const FlagParser flags = Parse({"--throttle", "--policy=eas"});
  EXPECT_TRUE(flags.Has("throttle"));
  EXPECT_TRUE(flags.GetBool("throttle"));
  EXPECT_FALSE(flags.GetBool("verbose"));
}

TEST(FlagsTest, SwitchBeforeAnotherFlag) {
  // "--throttle --policy eas": throttle must not eat "--policy".
  const FlagParser flags = Parse({"--throttle", "--policy", "eas"});
  EXPECT_TRUE(flags.GetBool("throttle"));
  EXPECT_EQ(flags.GetString("policy"), "eas");
}

TEST(FlagsTest, BoolValueForms) {
  EXPECT_TRUE(Parse({"--x=true"}).GetBool("x"));
  EXPECT_TRUE(Parse({"--x=1"}).GetBool("x"));
  EXPECT_TRUE(Parse({"--x=on"}).GetBool("x"));
  EXPECT_FALSE(Parse({"--x=false"}).GetBool("x"));
  EXPECT_FALSE(Parse({"--x=0"}).GetBool("x"));
}

TEST(FlagsTest, Fallbacks) {
  const FlagParser flags = Parse({});
  EXPECT_EQ(flags.GetString("missing", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(flags.GetDouble("missing", 3.5), 3.5);
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
      Parse({"--seed", "1", "--sink=jsonl:a", "--seed=2", "--sink", "jsonl:b", "--plot", "--plot"});
  EXPECT_EQ(flags.RepeatedFlags(), (std::vector<std::string>{"plot", "seed", "sink"}));
  EXPECT_EQ(flags.GetInt("seed", 0), 2);  // the accessors keep the last value
  EXPECT_EQ(flags.GetString("sink"), "jsonl:b");
  EXPECT_TRUE(Parse({"--seed", "1", "--sink=jsonl:a"}).RepeatedFlags().empty());
}

TEST(FlagsTest, SplitColons) {
  const auto fields = FlagParser::SplitColons("2:4:1");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "2");
  EXPECT_EQ(fields[2], "1");
  EXPECT_EQ(FlagParser::SplitColons("abc").size(), 1u);
  EXPECT_EQ(FlagParser::SplitColons("a::b").size(), 3u);
}

}  // namespace
}  // namespace eas
