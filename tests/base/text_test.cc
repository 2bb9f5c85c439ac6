#include "src/base/text.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace eas {
namespace {

// One row per input: whether each number rule takes it.
struct NumberCase {
  const char* text;
  bool uint_ok;
  bool int_ok;
  bool finite_ok;
};

constexpr NumberCase kNumberCases[] = {
    {"0", true, true, true},
    {"18446744073709551615", true, false, true},  // uint64 max; past int64
    {"-9223372036854775808", false, true, true},  // int64 min
    {"1e3", false, false, true},
    {"", false, false, false},
    {"+1", false, false, true},  // strtod syntax takes a '+'; the integers do not
    {" 1", false, false, false},
    {"1 ", false, false, false},
    {"\t1", false, false, false},
    {"1x", false, false, false},
    {"18446744073709551616", false, false, true},  // one past uint64 max
    {"9223372036854775808", true, false, true},    // one past int64 max
    {"-9223372036854775809", false, false, true},  // one below int64 min
    {"-1", false, true, true},
    {"-", false, false, false},
    {"nan", false, false, false},
    {"inf", false, false, false},
    {"1e999", false, false, false},
    {"2.5", false, false, true},
};

TEST(TextTest, NumberRulesTakeTheWholeText) {
  for (const NumberCase& c : kNumberCases) {
    std::uint64_t u = 7;
    std::int64_t i = 7;
    double d = 7.0;
    EXPECT_EQ(ParseUint(c.text, &u), c.uint_ok) << '"' << c.text << '"';
    EXPECT_EQ(ParseInt(c.text, &i), c.int_ok) << '"' << c.text << '"';
    EXPECT_EQ(ParseFinite(c.text, &d), c.finite_ok) << '"' << c.text << '"';
    // A rejected text leaves the output alone.
    if (!c.uint_ok) {
      EXPECT_EQ(u, 7u) << c.text;
    }
    if (!c.int_ok) {
      EXPECT_EQ(i, 7) << c.text;
    }
    if (!c.finite_ok) {
      EXPECT_EQ(d, 7.0) << c.text;
    }
  }
}

TEST(TextTest, NumberRulesReadTheValue) {
  std::uint64_t u = 0;
  ASSERT_TRUE(ParseUint("18446744073709551615", &u));
  EXPECT_EQ(u, UINT64_MAX);
  ASSERT_TRUE(ParseUint("007", &u));
  EXPECT_EQ(u, 7u);
  std::int64_t i = 0;
  ASSERT_TRUE(ParseInt("-9223372036854775808", &i));
  EXPECT_EQ(i, INT64_MIN);
  ASSERT_TRUE(ParseInt("9223372036854775807", &i));
  EXPECT_EQ(i, INT64_MAX);
  double d = 0.0;
  ASSERT_TRUE(ParseFinite("1e3", &d));
  EXPECT_EQ(d, 1000.0);
  ASSERT_TRUE(ParseFinite("-0.5", &d));
  EXPECT_EQ(d, -0.5);
}

TEST(TextTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(SplitFields("", ','), std::vector<std::string>{""});
  EXPECT_EQ(SplitFields("a", ','), std::vector<std::string>{"a"});
  EXPECT_EQ(SplitFields("a::b", ':'), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(SplitFields("0,memrw,", ','), (std::vector<std::string>{"0", "memrw", ""}));
  EXPECT_EQ(SplitFields(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(TextTest, TrimStripsSpacesTabsAndCarriageReturns) {
  EXPECT_EQ(Trim(" \t x y \r"), "x y");
  EXPECT_EQ(Trim("x"), "x");
  EXPECT_EQ(Trim(" \t\r "), "");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("\nx\n"), "\nx\n");  // newlines are line structure, not padding
}

}  // namespace
}  // namespace eas
