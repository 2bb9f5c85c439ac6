#include "src/counters/counter_block.h"

namespace eas {

void CounterBlock::Accumulate(const EventVector& events) {
  for (std::size_t i = 0; i < kNumEventTypes; ++i) {
    values_[i] += events[i];
  }
}

}  // namespace eas
