// Simulated multimeter on the processor power rail.
//
// The paper calibrates counter weights by measuring real energy consumption
// with a multimeter. We reproduce that: the meter reports the true dissipated
// energy of a measurement window with a small multiplicative gaussian error,
// which is what makes the downstream estimation error realistic (<10%).

#ifndef SRC_COUNTERS_POWER_METER_H_
#define SRC_COUNTERS_POWER_METER_H_

#include "src/base/rng.h"

namespace eas {

class PowerMeter {
 public:
  // `relative_error_stddev` ~ 0.02 models a 2% instrument error.
  PowerMeter(std::uint64_t seed, double relative_error_stddev);

  // Returns a noisy measurement of `true_energy_joules`.
  double MeasureEnergy(double true_energy_joules);

 private:
  Rng rng_;
  double relative_error_stddev_;
};

}  // namespace eas

#endif  // SRC_COUNTERS_POWER_METER_H_
