// Deterministic pseudo random number generator.
//
// All stochastic behaviour in the simulator (event rate noise, phase
// durations, meter error) is driven by explicitly seeded Rng instances so
// that every experiment is reproducible bit-for-bit. The generator is
// xoshiro256** seeded via splitmix64.

#ifndef SRC_BASE_RNG_H_
#define SRC_BASE_RNG_H_

#include <cstdint>
#include <span>

namespace eas {

class Rng {
 public:
  // Seeds the generator. Two generators with the same seed produce the same
  // sequence on every platform.
  explicit Rng(std::uint64_t seed);

  // Next raw 64-bit value.
  std::uint64_t NextU64();

  // Uniform double in [0, 1).
  double NextDouble();

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  // Uniform integer in [0, n). n must be > 0.
  std::uint64_t NextBelow(std::uint64_t n);

  // Standard normal variate by Marsaglia's polar method: rejection-sample
  // (u, v) uniformly in the unit disc, then one log and one sqrt turn the pair
  // into two normals. The second is cached as the spare for the next call.
  double NextGaussian();

  // Fills `out` with exactly the values out.size() successive NextGaussian()
  // calls would return, and leaves the same generator state and spare: a
  // pending spare comes first, the pairs draw their (u, v) in stream order,
  // and an odd remainder leaves the last pair's second normal as the spare.
  // One call draws several pairs before their log/sqrt factors, so those
  // independent chains overlap instead of running one behind another.
  void NextGaussians(std::span<double> out);

  // Gaussian with the given mean and standard deviation.
  double Gaussian(double mean, double stddev);

  // Bernoulli trial with probability p of returning true.
  bool Chance(double p);

  // Derives an independent generator; useful for giving each task its own
  // stream while keeping the experiment controlled by one master seed.
  Rng Fork();

 private:
  std::uint64_t state_[4];
  double spare_gaussian_ = 0.0;
  bool has_spare_gaussian_ = false;
};

}  // namespace eas

#endif  // SRC_BASE_RNG_H_
