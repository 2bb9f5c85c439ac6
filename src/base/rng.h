// Deterministic pseudo random number generator.
//
// All stochastic behaviour in the simulator (event rate noise, phase
// durations, meter error) is driven by explicitly seeded Rng instances so
// that every experiment is reproducible bit-for-bit. The generator is
// xoshiro256** seeded via splitmix64.

#ifndef SRC_BASE_RNG_H_
#define SRC_BASE_RNG_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace eas {

// One stage of the staged polar kernel draws this many candidate (u, v) pairs,
// so it yields at most kGaussianStageNormals normals.
inline constexpr std::size_t kGaussianStagePairs = 16;
inline constexpr std::size_t kGaussianStageNormals = 2 * kGaussianStagePairs;

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
  // pending spare comes first, then full stages (below) while at least
  // kGaussianStageNormals values remain, so every pair a stage accepts is
  // needed, then the tail one NextGaussian() at a time.
  void NextGaussians(std::span<double> out);

  // One stage of the polar method: draws exactly kGaussianStagePairs
  // candidate (u, v) pairs in NextGaussian()'s stream order, keeps the
  // accepted ones in order, and only then computes their log/sqrt factors, so
  // those independent chains overlap. Writes each kept pair's two normals to
  // the front of `out` and returns how many it wrote (even, possibly 0).
  // Concatenated stages are the normals successive NextGaussian() calls
  // return; only the generator's position differs, which has already drawn
  // the stage's trailing rejected candidates. Requires no pending spare and
  // leaves none.
  std::size_t NextGaussianStage(std::span<double, kGaussianStageNormals> out);

  // Gaussian with the given mean and standard deviation.
  double Gaussian(double mean, double stddev);

 private:
  std::uint64_t state_[4];
  double spare_gaussian_ = 0.0;
  bool has_spare_gaussian_ = false;
};

// The normals of one privately owned generator, read ahead one stage at a
// time and handed out in exactly the order successive NextGaussian() calls on
// Rng(seed) would return them. Nothing can draw from the generator around the
// stream, so the read-ahead is invisible: the stream has no uniform draw.
class GaussianStream {
 public:
  explicit GaussianStream(std::uint64_t seed) : rng_(seed) {}

  // The next normal.
  double Next() {
    if (next_ == end_) {
      Refill();
    }
    return buffer_[next_++];
  }

  // The next out.size() normals, as that many Next() calls would return them.
  void Fill(std::span<double> out) {
    if (static_cast<std::size_t>(end_ - next_) >= out.size()) {
      std::copy_n(buffer_.begin() + next_, out.size(), out.begin());
      next_ = static_cast<std::uint8_t>(next_ + out.size());
      return;
    }
    for (double& value : out) {
      value = Next();
    }
  }

 private:
  // Replaces the drained buffer with the next non-empty stage.
  void Refill();

  // The cursors live in the generator's tail padding, so a stream costs its
  // generator plus the buffer.
  [[no_unique_address]] Rng rng_;
  std::uint8_t next_ = 0;  // first unread slot of buffer_
  std::uint8_t end_ = 0;   // one past the last normal of the current stage
  std::array<double, kGaussianStageNormals> buffer_{};
};

}  // namespace eas

#endif  // SRC_BASE_RNG_H_
