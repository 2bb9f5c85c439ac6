#include "src/base/rng.h"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

namespace eas {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1'000; ++i) {
    const double x = rng.Uniform(-3.0, 5.0);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(RngTest, UniformMeanIsCentered) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextDouble();
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.NextGaussian();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(RngTest, GaussianScaling) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) {
    sum += rng.Gaussian(10.0, 2.0);
  }
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(RngTest, GaussianStreamKnownAnswer) {
  // The exact normal stream of one seed: a reordered uniform, a changed
  // factor or a lost spare moves these bits, which the moment tests above
  // cannot see.
  constexpr std::uint64_t kExpected[16] = {
      0x3fe9356a7a1bbe22ULL, 0xbfe7809adf637526ULL, 0xbfe45648f30d6b8eULL,
      0xbff7625de4f985f6ULL, 0x3fb430bd816b81ecULL, 0xbfe3f86cda88b535ULL,
      0x3fc48298177b4179ULL, 0x3fd417d65f238a83ULL, 0x3febc6e210b757c2ULL,
      0xbfd370baf3090c0cULL, 0x3fe2750fef4397fdULL, 0xbfe4ef095b3ab994ULL,
      0xbfd741adc9b27657ULL, 0x3fbf14358327c7e4ULL, 0x3ff402caee115ebbULL,
      0xbfd951d310fcfd49ULL,
  };
  Rng rng(2024);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(rng.NextGaussian()), kExpected[i]) << "normal " << i;
  }
  EXPECT_EQ(rng.NextU64(), 0xa632503590f36211ULL);
}

TEST(RngTest, BatchedGaussiansEqualSuccessiveCalls) {
  // NextGaussians(n) must be indistinguishable from n NextGaussian() calls:
  // the same bytes out, then the same continuation of both streams. Each n
  // is entered with and without a pending spare, so odd and even counts
  // cover every way a batch can start and end.
  // 31..33 and 63..65 straddle the full-stage / one-at-a-time edge, and
  // 12000 is a calibration workload's count.
  for (const std::size_t n : {0, 1, 2, 3, 5, 6, 7, 8, 9, 17, 31, 32, 33, 63, 64, 65, 1001, 12000}) {
    for (const bool pending_spare : {false, true}) {
      SCOPED_TRACE(testing::Message() << "n = " << n << ", pending spare = " << pending_spare);
      Rng calls(97 + n);
      Rng batch(97 + n);
      if (pending_spare) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(calls.NextGaussian()),
                  std::bit_cast<std::uint64_t>(batch.NextGaussian()));
      }
      std::vector<double> expected(n);
      for (double& value : expected) {
        value = calls.NextGaussian();
      }
      // One slot more than n, so a write past the span's end shows up.
      std::vector<double> drawn(n + 1, 0.25);
      batch.NextGaussians(std::span<double>(drawn.data(), n));
      EXPECT_EQ(n == 0 ? 0 : std::memcmp(expected.data(), drawn.data(), n * sizeof(double)), 0);
      EXPECT_EQ(drawn[n], 0.25);
      for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(calls.NextGaussian()),
                  std::bit_cast<std::uint64_t>(batch.NextGaussian()))
            << "continuation normal " << i;
        EXPECT_EQ(calls.NextU64(), batch.NextU64()) << "continuation word " << i;
      }
    }
  }
}

TEST(RngTest, GaussianStagesEqualSuccessiveCalls) {
  // Concatenated stages are the successive-call stream, and each stage draws
  // exactly kGaussianStagePairs candidates: 2 uniforms, one word each.
  for (const std::uint64_t seed : {1u, 7u, 2024u, 65537u}) {
    SCOPED_TRACE(testing::Message() << "seed = " << seed);
    Rng calls(seed);
    Rng staged(seed);
    Rng words(seed);
    std::size_t drawn = 0;
    while (drawn < 10'000) {
      std::array<double, kGaussianStageNormals> stage{};
      const std::size_t count = staged.NextGaussianStage(stage);
      ASSERT_EQ(count % 2, 0u);
      ASSERT_LE(count, kGaussianStageNormals);
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(stage[i]),
                  std::bit_cast<std::uint64_t>(calls.NextGaussian()))
            << "normal " << drawn + i;
      }
      drawn += count;
      for (std::size_t i = 0; i < 2 * kGaussianStagePairs; ++i) {
        words.NextU64();
      }
      Rng probe = staged;
      Rng expected = words;
      ASSERT_EQ(probe.NextU64(), expected.NextU64()) << "position after " << drawn << " normals";
    }
  }
}

TEST(RngTest, GaussianStreamEqualsSuccessiveCalls) {
  // Reads of 1..7 normals, one at a time or as one Fill, land on every
  // offset of a stage, so many of them straddle a refill.
  for (const std::uint64_t seed : {3u, 42u, 2024u}) {
    SCOPED_TRACE(testing::Message() << "seed = " << seed);
    Rng calls(seed);
    GaussianStream stream(seed);
    std::size_t drawn = 0;
    for (std::size_t read = 0; drawn < 10'000; ++read) {
      const std::size_t n = 1 + read % 7;
      std::vector<double> normals(n);
      if (read % 2 == 0) {
        stream.Fill(normals);
      } else {
        for (double& value : normals) {
          value = stream.Next();
        }
      }
      for (const double value : normals) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(value),
                  std::bit_cast<std::uint64_t>(calls.NextGaussian()))
            << "normal " << drawn;
        ++drawn;
      }
    }
  }
  // The cursors sit in the generator's tail padding: a stream costs its
  // generator plus one stage of normals.
  EXPECT_EQ(sizeof(GaussianStream), sizeof(Rng) + kGaussianStageNormals * sizeof(double));
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(19);
  for (int i = 0; i < 1'000; ++i) {
    EXPECT_LT(rng.NextBelow(7), 7u);
  }
}

}  // namespace
}  // namespace eas
