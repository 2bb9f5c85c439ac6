// StepInLockstep against the one-chain loop it replaces: every chain must
// end bit for bit where the loop below leaves it, for both recurrence forms
// the skip-ahead kernel steps, any chain count in either family (full and
// short blocks, paired blocks and surplus blocks that step alone), any step
// count (inside one chunk, across chunk boundaries, long spans), and chains
// that start at, reach, or never reach a fixed point while the other
// family's block does something else.

#include "src/base/lockstep.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/exp_average.h"
#include "src/base/rng.h"
#include "src/thermal/rc_model.h"

namespace eas {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// The reference: one chain at a time, stopping at the first value that
// steps to itself (compared with ==, as the per-tick helpers did).
template <typename Step>
double OneChain(double value, const Step& step, std::int64_t n) {
  for (; n > 0; --n) {
    const double next = step(value);
    if (next == value) {
      break;
    }
    value = next;
  }
  return value;
}

using Averages = std::vector<LockstepChain<ExpAverage::Recurrence>>;
using Temperatures = std::vector<LockstepChain<RcThermalModel::Recurrence>>;

template <typename Step>
std::vector<double> OneChainResults(const std::vector<LockstepChain<Step>>& chains,
                                    std::int64_t n) {
  std::vector<double> results;
  for (const LockstepChain<Step>& chain : chains) {
    results.push_back(OneChain(chain.value, chain.step, n));
  }
  return results;
}

template <typename Step>
void ExpectBits(const std::vector<LockstepChain<Step>>& chains, const std::vector<double>& expected,
                const std::string& label) {
  for (std::size_t i = 0; i < chains.size(); ++i) {
    EXPECT_EQ(std::memcmp(&chains[i].value, &expected[i], sizeof(double)), 0)
        << label << " chain " << i << ": " << chains[i].value << " vs " << expected[i];
  }
}

// Steps both families in one call, once in each order, and compares every
// chain with the one-chain loop.
template <typename StepA, typename StepB>
void ExpectPairMatchesOneChain(const std::vector<LockstepChain<StepA>>& first,
                               const std::vector<LockstepChain<StepB>>& second, std::int64_t n,
                               const std::string& label) {
  const std::vector<double> first_expected = OneChainResults(first, n);
  const std::vector<double> second_expected = OneChainResults(second, n);
  std::vector<LockstepChain<StepA>> a = first;
  std::vector<LockstepChain<StepB>> b = second;
  StepInLockstep(std::span(a), std::span(b), n);
  ExpectBits(a, first_expected, label + ", first family");
  ExpectBits(b, second_expected, label + ", second family");
  a = first;
  b = second;
  StepInLockstep(std::span(b), std::span(a), n);
  ExpectBits(a, first_expected, label + ", as second family");
  ExpectBits(b, second_expected, label + ", as first family");
}

// One family alone: the other is empty.
template <typename Step>
void ExpectMatchesOneChain(const std::vector<LockstepChain<Step>>& chains, std::int64_t n,
                           const std::string& label) {
  ExpectPairMatchesOneChain(chains, std::vector<LockstepChain<Step>>{}, n, label);
}

// A decay for chain `i` of one of three speeds: settles within a chunk or
// two, settles within a few thousand steps (mid-chunk, at an arbitrary
// step), or is still moving after 10 000 steps (the engine's per-tick decay
// for a 12 s time constant).
double DecayFor(std::size_t i, Rng& rng) {
  switch (i % 3) {
    case 0:
      return rng.Uniform(0.3, 0.6);
    case 1:
      return rng.Uniform(0.98, 0.995);
    default:
      return 1.0 - rng.Uniform(1.0, 2.0) / 12'000.0;
  }
}

// Every fourth chain starts at its fixed point; the rest start away from it.
template <typename Step>
std::vector<LockstepChain<Step>> MakeChains(std::size_t count, std::uint64_t seed,
                                            Step (*make)(double target, double decay)) {
  Rng rng(seed);
  std::vector<LockstepChain<Step>> chains;
  for (std::size_t i = 0; i < count; ++i) {
    const Step step = make(rng.Uniform(-50.0, 80.0), DecayFor(i, rng));
    double value = rng.Uniform(-100.0, 100.0);
    if (i % 4 == 3) {
      value = OneChain(value, step, std::numeric_limits<std::int64_t>::max());
    }
    chains.push_back({value, step});
  }
  return chains;
}

ExpAverage::Recurrence AverageToward(double target, double decay) {
  return {(1.0 - decay) * target, decay};
}

RcThermalModel::Recurrence TemperatureToward(double target, double decay) {
  return {target, decay};
}

TEST(LockstepTest, MatchesOneChainLoopForEveryCountAndSpan) {
  for (const std::size_t count : {1u, 7u, 8u, 9u, 17u, 512u, 1024u}) {
    const auto averages = MakeChains(count, count * 7 + 1, &AverageToward);
    const auto temperatures = MakeChains(count, count * 7 + 2, &TemperatureToward);
    for (const std::int64_t n : {0, 1, 31, 33, 10'000}) {
      const std::string label = std::to_string(count) + " chains, " + std::to_string(n) + " steps";
      ExpectMatchesOneChain(averages, n, "average " + label);
      ExpectMatchesOneChain(temperatures, n, "temperature " + label);
    }
  }
}

TEST(LockstepTest, PairedFamiliesMatchOneChainLoopForEveryCountAndSpan) {
  // Crossed counts pair full blocks with full or short ones and leave either
  // family's surplus blocks, full or short, to step alone.
  constexpr std::size_t kCounts[] = {0, 1, 7, 8, 9, 17};
  for (const std::size_t average_count : kCounts) {
    const Averages averages = MakeChains(average_count, average_count * 7 + 1, &AverageToward);
    for (const std::size_t temperature_count : kCounts) {
      const Temperatures temperatures =
          MakeChains(temperature_count, temperature_count * 7 + 2, &TemperatureToward);
      for (const std::int64_t n : {0, 1, 31, 32, 33, 10'000}) {
        ExpectPairMatchesOneChain(averages, temperatures, n,
                                  std::to_string(average_count) + " averages, " +
                                      std::to_string(temperature_count) + " temperatures, " +
                                      std::to_string(n) + " steps");
      }
    }
  }
}

TEST(LockstepTest, OneFamilyFixedAtTheStartWhileTheOtherMoves) {
  // The fixed family forms no block, so every block of the other steps alone.
  Averages fixed;
  for (int i = 0; i < 9; ++i) {
    const ExpAverage::Recurrence step = AverageToward(10.0 + i, 0.9);
    fixed.push_back({OneChain(3.0 * i, step, std::numeric_limits<std::int64_t>::max()), step});
  }
  const Temperatures moving = MakeChains(9, 5, &TemperatureToward);
  for (const std::int64_t n : {1, 33, 10'000}) {
    ExpectPairMatchesOneChain(fixed, moving, n, "fixed averages, n=" + std::to_string(n));
  }
}

TEST(LockstepTest, OneFamilySettlingInTheFirstChunkKeepsItsPartnerStepping) {
  // The averages reach their fixed points within the first chunk; the
  // temperatures (the engine's 12 s decay) never settle. The paired block
  // stops only where both have settled, so the temperatures run every step
  // and the settled lanes step on in place.
  Averages settling;
  for (int i = 0; i < 8; ++i) {
    settling.push_back({50.0 - 7.0 * i, AverageToward(4.0 + i, 0.1)});
  }
  for (const LockstepChain<ExpAverage::Recurrence>& chain : settling) {
    const double settled = OneChain(chain.value, chain.step, kLockstepChunk);
    ASSERT_EQ(chain.step(settled), settled);
  }
  Temperatures moving;
  for (int i = 0; i < 8; ++i) {
    moving.push_back({25.0 + i, TemperatureToward(60.0, 1.0 - 1.0 / 12'000.0)});
  }
  for (const std::int64_t n : {33, 64, 100, 10'000}) {
    ExpectPairMatchesOneChain(settling, moving, n, "settling averages, n=" + std::to_string(n));
  }
}

TEST(LockstepTest, FixedChainsAreLeftUntouched) {
  // Chains at their fixed point, including a zero whose successor is the
  // other zero (-0.0 steps to +0.0 and == holds, so the one-chain loop stops
  // at once and so must the stepper).
  Averages chains = {
      {-0.0, {0.0, 0.5}}, {kInf, {1.0, 0.5}}, {-kInf, {1.0, 0.5}}, {2.0, {1.0, 0.5}}};
  const Averages before = chains;
  for (const Temperatures& partner : {Temperatures{}, MakeChains(9, 3, &TemperatureToward)}) {
    chains = before;
    Temperatures moved = partner;
    StepInLockstep(std::span(chains), std::span(moved), 1'000);
    for (std::size_t i = 0; i < chains.size(); ++i) {
      EXPECT_EQ(std::memcmp(&chains[i].value, &before[i].value, sizeof(double)), 0)
          << i << " beside " << partner.size() << " moving chains";
    }
  }
}

TEST(LockstepTest, NonFiniteValuesMatch) {
  // NaN never compares equal, so a NaN chain runs every step; infinities
  // are fixed at once, or turn to NaN against an opposite infinite target.
  for (const std::int64_t n : {1, 31, 33, 10'000}) {
    const Temperatures temperatures = {
        {kNaN, {40.0, 0.9}},  {kInf, {40.0, 0.9}},    {-kInf, {40.0, 0.9}}, {30.0, {kInf, 0.9}},
        {30.0, {-kInf, 0.9}}, {kInf, {-kInf, 0.9}},   {30.0, {40.0, kInf}}, {30.0, {40.0, 0.9}},
        {-1.0, {40.0, 0.5}}};
    const Averages averages = {
        {kNaN, {4.0, 0.9}},  {kInf, {4.0, 0.9}},  {-kInf, {4.0, 0.9}}, {3.0, {kInf, 0.9}},
        {3.0, {-kInf, 0.9}}, {-kInf, {kInf, 0.9}}, {3.0, {4.0, kInf}}, {3.0, {4.0, 0.5}}};
    const std::string label = "n=" + std::to_string(n);
    ExpectMatchesOneChain(temperatures, n, "temperatures alone, " + label);
    ExpectMatchesOneChain(averages, n, "averages alone, " + label);
    ExpectPairMatchesOneChain(temperatures, MakeChains(9, 4, &AverageToward), n,
                              "temperatures beside moving averages, " + label);
    ExpectPairMatchesOneChain(averages, MakeChains(9, 6, &TemperatureToward), n,
                              "averages beside moving temperatures, " + label);
    ExpectPairMatchesOneChain(temperatures, averages, n, "both non-finite, " + label);
  }
}

TEST(LockstepTest, ZeroFlipRecomputesTheLane) {
  // t + (x - t) * d with t = -0.0, d = 0.5: the smallest negative subnormal
  // steps to -0.0, which steps to +0.0. The one-chain loop stops at -0.0
  // (+0.0 == -0.0); the lockstep lane steps on to +0.0 and must be
  // recomputed. The neighbours, in its block and in the partner family's
  // block, settle fast (the block stops at the first chunk boundary) or
  // never (the block runs every step).
  const double tiny = -std::numeric_limits<double>::denorm_min();
  const RcThermalModel::Recurrence flip{-0.0, 0.5};
  EXPECT_TRUE(std::signbit(OneChain(tiny, flip, 10'000)));
  for (const double neighbour_decay : {0.5, 1.0 - 1.0 / 12'000.0}) {
    for (const std::int64_t n : {1, 2, 3, 31, 33, 10'000}) {
      Temperatures chains(9, {25.0, {40.0, neighbour_decay}});
      chains[3] = {tiny, flip};
      const Averages partner(8, {5.0, AverageToward(1.0, neighbour_decay)});
      const std::string label = "temperature flip n=" + std::to_string(n);
      ExpectMatchesOneChain(chains, n, label);
      ExpectPairMatchesOneChain(chains, partner, n, label + " beside averages");
    }
  }
  // The average's form flips with a negative decay: -0.0 steps to +0.0
  // and +0.0 back to -0.0, so the lane ends on either zero by parity.
  const ExpAverage::Recurrence oscillate{-0.0, -0.5};
  for (const std::int64_t n : {1, 2, 3, 32, 33, 10'000}) {
    const Averages chains = {{std::numeric_limits<double>::denorm_min(), oscillate},
                             {5.0, {1.0, 0.5}}};
    const std::string label = "average flip n=" + std::to_string(n);
    ExpectMatchesOneChain(chains, n, label);
    ExpectPairMatchesOneChain(chains, Temperatures(3, {25.0, {40.0, 1.0 - 1.0 / 12'000.0}}), n,
                              label + " beside temperatures");
  }
}

TEST(LockstepTest, SharesTheClassesPerTickRecurrence) {
  // The recurrence a class hands the stepper is the one its per-tick path
  // applies: stepping it n times equals n per-tick calls, with both classes'
  // chains stepped in one call as the skip-ahead kernel steps them.
  constexpr std::int64_t kSteps = 5'000;
  ExpAverage average = ExpAverage::WithTimeConstant(12.0, 0.001);
  average.Reset(30.0);
  RcThermalModel model(ThermalParams{});
  model.SetTemperature(55.0);
  Averages averages = {{average.value(), average.RecurrenceFor(7.5, 0.001)}};
  Temperatures temperatures = {{model.temperature(), model.RecurrenceFor(7.5, 0.001)}};
  for (std::int64_t i = 0; i < kSteps; ++i) {
    average.AddRateSample(7.5, 0.001);
    model.Step(7.5, 0.001);
  }
  StepInLockstep(std::span(temperatures), std::span(averages), kSteps);
  EXPECT_EQ(averages[0].value, average.value());
  EXPECT_EQ(temperatures[0].value, model.temperature());
}

}  // namespace
}  // namespace eas
