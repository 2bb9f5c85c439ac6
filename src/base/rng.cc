#include "src/base/rng.h"

#include <cmath>
#include <cstddef>

namespace eas {
namespace {

std::uint64_t SplitMix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t Rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// A point (u, v) in the unit disc minus its centre, with s = u*u + v*v.
struct DiscPoint {
  double u;
  double v;
  double s;
};

// The polar step, shared by NextGaussian and NextGaussians: rejection-samples
// a uniform DiscPoint. `inline` keeps it inlined into both callers; a call
// per pair costs the batch much of its gain.
inline DiscPoint DrawDiscPoint(Rng& rng) {
  DiscPoint p{};
  do {
    p.u = rng.Uniform(-1.0, 1.0);
    p.v = rng.Uniform(-1.0, 1.0);
    p.s = p.u * p.u + p.v * p.v;
  } while (p.s >= 1.0 || p.s == 0.0);
  return p;
}

// Scales a disc point's coordinates into two independent standard normals.
double PolarFactor(double s) { return std::sqrt(-2.0 * std::log(s) / s); }

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) {
    word = SplitMix64(s);
  }
}

std::uint64_t Rng::NextU64() {
  const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 random mantissa bits.
  return static_cast<double>(NextU64() >> 11) * (1.0 / 9007199254740992.0);
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

std::uint64_t Rng::NextBelow(std::uint64_t n) {
  // Rejection-free for our purposes; bias is negligible for small n.
  return NextU64() % n;
}

double Rng::NextGaussian() {
  if (has_spare_gaussian_) {
    has_spare_gaussian_ = false;
    return spare_gaussian_;
  }
  const DiscPoint p = DrawDiscPoint(*this);
  const double factor = PolarFactor(p.s);
  spare_gaussian_ = p.v * factor;
  has_spare_gaussian_ = true;
  return p.u * factor;
}

void Rng::NextGaussians(std::span<double> out) {
  std::size_t next = 0;
  if (has_spare_gaussian_ && !out.empty()) {
    has_spare_gaussian_ = false;
    out[next++] = spare_gaussian_;
  }
  // Blocks of three pairs: all three rejection loops run first, in stream
  // order, and only then the three factors, which consume no randomness.
  // When only five normals remain, the block's sixth becomes the spare.
  constexpr std::size_t kBlockPairs = 3;
  while (out.size() - next >= 2 * kBlockPairs - 1) {
    DiscPoint points[kBlockPairs]{};
    for (DiscPoint& point : points) {
      point = DrawDiscPoint(*this);
    }
    double factors[kBlockPairs]{};
    for (std::size_t i = 0; i < kBlockPairs; ++i) {
      factors[i] = PolarFactor(points[i].s);
    }
    for (std::size_t i = 0; i < kBlockPairs; ++i) {
      out[next++] = points[i].u * factors[i];
      const double second = points[i].v * factors[i];
      if (next < out.size()) {
        out[next++] = second;
      } else {
        spare_gaussian_ = second;
        has_spare_gaussian_ = true;
      }
    }
  }
  // A tail shorter than a block draws one normal at a time: the same stream.
  while (next < out.size()) {
    out[next++] = NextGaussian();
  }
}

double Rng::Gaussian(double mean, double stddev) { return mean + stddev * NextGaussian(); }

bool Rng::Chance(double p) { return NextDouble() < p; }

Rng Rng::Fork() { return Rng(NextU64()); }

}  // namespace eas
