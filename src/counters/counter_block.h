// Per logical CPU event monitoring counter block.
//
// Mirrors the way the kernel implementation reads hardware counters: counters
// accumulate monotonically while the CPU executes; the energy accounting code
// snapshots them at the beginning and end of every accounting period (task
// switch / end of timeslice) and works with the differences (Section 3.2).

#ifndef SRC_COUNTERS_COUNTER_BLOCK_H_
#define SRC_COUNTERS_COUNTER_BLOCK_H_

#include "src/counters/event_types.h"

namespace eas {

class CounterBlock {
 public:
  // Accumulates the events of one execution period onto the counters.
  void Accumulate(const EventVector& events);

  // Returns the current (monotonic) counter values.
  const EventVector& values() const { return values_; }

 private:
  EventVector values_{};
};

}  // namespace eas

#endif  // SRC_COUNTERS_COUNTER_BLOCK_H_
