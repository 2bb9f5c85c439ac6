// Counter-based energy estimator (paper Section 3.2, Equation 1).
//
// The estimator is the component the kernel integration reads on every task
// switch and timeslice end. It owns the calibrated per-event weights a_i and
// computes E = sum(a_i * c_i) over a counter diff, plus the static share of
// the accounting period.

#ifndef SRC_COUNTERS_ENERGY_ESTIMATOR_H_
#define SRC_COUNTERS_ENERGY_ESTIMATOR_H_

#include "src/base/time.h"
#include "src/counters/energy_model.h"
#include "src/counters/event_types.h"

namespace eas {

class EnergyEstimator {
 public:
  // `weights` are the calibrated weights (from Calibration or elsewhere);
  // `static_power_per_logical_watts` is the active base power share the
  // estimator attributes to each logical CPU per tick of execution.
  EnergyEstimator(const EventWeights& weights, double static_power_per_logical_watts);

  // Convenience: an estimator with oracle weights (tests / upper bound).
  static EnergyEstimator Oracle(const EnergyModel& model, std::size_t smt_siblings);

  // Dynamic energy attributed to a counter diff.
  double EstimateDynamicEnergy(const EventVector& counter_diff) const;

  // Dynamic energy under DVFS: `energy_scale` is the current P-state's
  // per-event factor (V^2). The simulated kernel knows the P-state it
  // programmed, so scaling the estimate is fair game (the event counts
  // themselves already shrink with frequency). Exactly the unscaled
  // estimate at P0 (scale 1.0).
  double EstimateDynamicEnergy(const EventVector& counter_diff, double energy_scale) const {
    return EstimateDynamicEnergy(counter_diff) * energy_scale;
  }

  // Total energy attributed to an execution period: dynamic part plus the
  // static share for `active_ticks` ticks of execution.
  double EstimateEnergy(const EventVector& counter_diff, Tick active_ticks) const;

  const EventWeights& weights() const { return weights_; }
  double static_power_per_logical() const { return static_power_per_logical_watts_; }

 private:
  EventWeights weights_;
  double static_power_per_logical_watts_;
};

}  // namespace eas

#endif  // SRC_COUNTERS_ENERGY_ESTIMATOR_H_
