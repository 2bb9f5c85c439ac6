// Variable-period exponentially weighted moving average (paper Section 3.3).
//
// The paper extends the classic exponential average
//     avg_i = p * x_i + (1 - p) * avg_{i-1}
// to sampling periods of varying length: if a sample covers a period shorter
// than the standard period, the past is weighted more (it decays less); if a
// sample covers a longer period, the past is weighted less. This is achieved
// by scaling the decay exponentially with the period:
//     avg = (1 - d) * x_rate + d * avg,   d = (1 - p)^(period / standard)
// where x_rate is the sample expressed per standard period. For period ==
// standard this reduces exactly to the constant-weight formula.
//
// Both the per-task energy profile (standard period = one timeslice) and the
// per-CPU thermal power (weight matched to the thermal RC time constant) are
// instances of this class.

#ifndef SRC_BASE_EXP_AVERAGE_H_
#define SRC_BASE_EXP_AVERAGE_H_

#include <cassert>
#include <cmath>

namespace eas {

class ExpAverage {
 public:
  // `weight` is p in the paper's Equation 2 (weight of the new sample when
  // the sampling period equals `standard_period`); must be in (0, 1].
  // `standard_period` is expressed in arbitrary but consistent time units
  // (the simulator uses seconds).
  ExpAverage(double weight, double standard_period);

  // Creates an average whose step response matches a first-order system with
  // time constant `tau`: after time tau the average has covered ~63% of a
  // step. Used to calibrate thermal power to the thermal model (Section 4.3).
  static ExpAverage WithTimeConstant(double tau, double standard_period);

  // One rate sample's recurrence, value <- blended + decay * value with
  // blended = (1 - decay) * rate: the single definition AddRateSample and
  // the skip-ahead span kernel (src/base/lockstep.h) apply.
  struct Recurrence {
    double blended;
    double decay;
    double operator()(double value) const { return blended + decay * value; }
  };

  // The recurrence AddRateSample(rate, period) applies once the average has
  // samples.
  //
  // The decay factor (1-p)^(period/standard) is memoized on `period`: the
  // engine's hot paths feed fixed-length periods (every tick is
  // kTickSeconds, every committed timeslice round the same grant), so the
  // pow() collapses to one compare almost every call. std::pow is
  // deterministic for identical arguments, so the memoized value is
  // bit-identical to recomputing it.
  Recurrence RecurrenceFor(double rate, double period) {
    assert(period > 0.0);
    if (period != cached_period_) {
      cached_period_ = period;
      cached_decay_ = std::pow(1.0 - weight_, period / standard_period_);
    }
    return {(1.0 - cached_decay_) * rate, cached_decay_};
  }

  // Folds in a rate sample directly (already per standard period).
  void AddRateSample(double rate, double period) {
    assert(period > 0.0);
    if (!has_samples_) {
      value_ = rate;
      has_samples_ = true;
      return;
    }
    value_ = RecurrenceFor(rate, period)(value_);
  }

  // Forces the average to a value (used to seed a task's profile from the
  // binary registry, Section 4.6).
  void Reset(double value);

  double value() const { return value_; }
  double weight() const { return weight_; }
  double standard_period() const { return standard_period_; }
  bool has_samples() const { return has_samples_; }

 private:
  double weight_;
  double standard_period_;
  double value_ = 0.0;
  // Memoized decay: cached_decay_ == pow(1 - weight_, cached_period_ /
  // standard_period_) whenever cached_period_ != 0 (0 is unreachable as a
  // real period, AddRateSample asserts period > 0).
  double cached_period_ = 0.0;
  double cached_decay_ = 1.0;
  bool has_samples_ = false;
};

}  // namespace eas

#endif  // SRC_BASE_EXP_AVERAGE_H_
