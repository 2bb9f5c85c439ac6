#include "src/base/rng.h"

#include <cassert>
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

// A candidate for the polar step: u, then v, uniform in [-1, 1), in stream
// order. NextGaussian and NextGaussianStage both draw through it, so they see
// the same candidates.
inline DiscPoint DrawCandidate(Rng& rng) {
  DiscPoint p{};
  p.u = rng.Uniform(-1.0, 1.0);
  p.v = rng.Uniform(-1.0, 1.0);
  p.s = p.u * p.u + p.v * p.v;
  return p;
}

// The polar step's acceptance test: the point lies in the unit disc minus its
// centre.
inline bool InDisc(const DiscPoint& p) { return (p.s < 1.0) & (p.s != 0.0); }

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
  DiscPoint p = DrawCandidate(*this);
  while (!InDisc(p)) {
    p = DrawCandidate(*this);
  }
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
  // A stage yields at most kGaussianStageNormals, so while that many remain
  // it writes straight into `out`. It leaves the generator past its trailing
  // rejected candidates only when it yields fewer, and then a later draw
  // would have rejected them anyway.
  while (out.size() - next >= kGaussianStageNormals) {
    next += NextGaussianStage(out.subspan(next).first<kGaussianStageNormals>());
  }
  // The tail draws one normal at a time: the same stream, and an odd count
  // leaves the last pair's second normal as the spare.
  while (next < out.size()) {
    out[next++] = NextGaussian();
  }
}

std::size_t Rng::NextGaussianStage(std::span<double, kGaussianStageNormals> out) {
  assert(!has_spare_gaussian_);
  // Every candidate lands in the slot the accepted count names, and only an
  // accepted one advances it: the compaction keeps stream order without a
  // branch on random data.
  DiscPoint kept[kGaussianStagePairs];
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < kGaussianStagePairs; ++i) {
    const DiscPoint candidate = DrawCandidate(*this);
    kept[accepted] = candidate;
    accepted += static_cast<std::size_t>(InDisc(candidate));
  }
  for (std::size_t i = 0; i < accepted; ++i) {
    const double factor = PolarFactor(kept[i].s);
    out[2 * i] = kept[i].u * factor;
    out[2 * i + 1] = kept[i].v * factor;
  }
  return 2 * accepted;
}

void GaussianStream::Refill() {
  // A stage accepts no pair with probability (1 - pi/4)^16, about 2e-11.
  std::size_t count = 0;
  while (count == 0) {
    count = rng_.NextGaussianStage(buffer_);
  }
  next_ = 0;
  end_ = static_cast<std::uint8_t>(count);
}

double Rng::Gaussian(double mean, double stddev) { return mean + stddev * NextGaussian(); }

}  // namespace eas
