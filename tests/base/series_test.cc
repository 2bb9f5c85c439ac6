#include "src/base/series.h"

#include <gtest/gtest.h>

namespace eas {
namespace {

TEST(SeriesTest, AddAndAccess) {
  Series s("test");
  s.Add(0, 1.0);
  s.Add(10, 2.0);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.tick_at(1), 10);
  EXPECT_DOUBLE_EQ(s.value_at(1), 2.0);
}

TEST(SeriesTest, MaxValue) {
  Series s("test");
  s.Add(0, 3.0);
  s.Add(1, -1.0);
  s.Add(2, 7.0);
  EXPECT_DOUBLE_EQ(s.MaxValue(), 7.0);
}

TEST(SeriesTest, EmptySeriesSafe) {
  Series s("empty");
  EXPECT_DOUBLE_EQ(s.MaxValue(), 0.0);
  EXPECT_DOUBLE_EQ(s.ValueAt(5, 42.0), 42.0);
}

TEST(SeriesTest, ValueAtFindsLastSampleBefore) {
  Series s("test");
  s.Add(0, 1.0);
  s.Add(100, 2.0);
  s.Add(200, 3.0);
  EXPECT_DOUBLE_EQ(s.ValueAt(150, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(s.ValueAt(200, 0.0), 3.0);
  EXPECT_DOUBLE_EQ(s.ValueAt(-1, 9.0), 9.0);
}

TEST(SeriesSetTest, CreateAppendsInOrder) {
  SeriesSet set;
  set.Create("a");
  set.Create("b");
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.at(0).name(), "a");
  EXPECT_EQ(set.at(1).name(), "b");
}

TEST(SeriesSetTest, SpreadAt) {
  SeriesSet set;
  Series& a = set.Create("a");
  Series& b = set.Create("b");
  a.Add(0, 10.0);
  a.Add(100, 20.0);
  b.Add(0, 13.0);
  b.Add(100, 50.0);
  EXPECT_DOUBLE_EQ(set.SpreadAt(0), 3.0);
  EXPECT_DOUBLE_EQ(set.SpreadAt(100), 30.0);
}

TEST(SeriesSetTest, MaxValueAcrossSeries) {
  SeriesSet set;
  set.Create("a").Add(0, 5.0);
  set.Create("b").Add(0, 8.0);
  EXPECT_DOUBLE_EQ(set.MaxValue(), 8.0);
}

}  // namespace
}  // namespace eas
