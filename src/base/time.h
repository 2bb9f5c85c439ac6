// Simulation time base.
//
// The simulator advances in fixed 1 ms ticks. All durations that cross module
// boundaries are expressed either in ticks (integer) or in seconds (double,
// for thermal math). Timeslices, balancing intervals etc. are tick counts.

#ifndef SRC_BASE_TIME_H_
#define SRC_BASE_TIME_H_

#include <cstdint>

namespace eas {

// One scheduler/simulation tick. The machine advances one tick at a time.
using Tick = std::int64_t;

// Duration of one tick in seconds (1 ms).
inline constexpr double kTickSeconds = 1e-3;

// The nice-0 timeslice, in ticks (100 ms, the Linux 2.6 default for the
// default priority). Task::TimesliceForNice scales it by priority, and it is
// the standard period of every task's energy profile.
inline constexpr Tick kTimesliceTicks = 100;

// Converts a tick count to seconds.
constexpr double TicksToSeconds(Tick ticks) { return static_cast<double>(ticks) * kTickSeconds; }

// Converts seconds to a (truncated) tick count.
constexpr Tick SecondsToTicks(double seconds) {
  return static_cast<Tick>(seconds / kTickSeconds);
}

}  // namespace eas

#endif  // SRC_BASE_TIME_H_
