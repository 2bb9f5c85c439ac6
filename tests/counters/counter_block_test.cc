#include "src/counters/counter_block.h"

#include <gtest/gtest.h>

namespace eas {
namespace {

EventVector MakeEvents(double uops, double mem) {
  EventVector e{};
  e[EventIndex(EventType::kUopsRetired)] = uops;
  e[EventIndex(EventType::kMemTransactions)] = mem;
  return e;
}

TEST(CounterBlockTest, StartsAtZero) {
  CounterBlock block;
  for (double v : block.values()) {
    EXPECT_DOUBLE_EQ(v, 0.0);
  }
}

TEST(CounterBlockTest, AccumulatesMonotonically) {
  CounterBlock block;
  block.Accumulate(MakeEvents(10.0, 5.0));
  block.Accumulate(MakeEvents(7.0, 1.0));
  EXPECT_DOUBLE_EQ(block.values()[EventIndex(EventType::kUopsRetired)], 17.0);
  EXPECT_DOUBLE_EQ(block.values()[EventIndex(EventType::kMemTransactions)], 6.0);
}

TEST(EventTypesTest, NamesAreDistinct) {
  for (std::size_t i = 0; i < kNumEventTypes; ++i) {
    for (std::size_t j = i + 1; j < kNumEventTypes; ++j) {
      EXPECT_NE(EventName(static_cast<EventType>(i)), EventName(static_cast<EventType>(j)));
    }
  }
}

}  // namespace
}  // namespace eas
