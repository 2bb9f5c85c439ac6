// StepInLockstep against the one-chain loop it replaces: every chain must
// end bit for bit where the loop below leaves it, for both recurrence forms
// the skip-ahead kernel steps, any chain count (full and short blocks), any
// step count (inside one chunk, across chunk boundaries, long spans), and
// chains that start at, reach, or never reach a fixed point.

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

template <typename Step>
void ExpectMatchesOneChain(std::vector<LockstepChain<Step>> chains, std::int64_t n,
                           const std::string& label) {
  std::vector<double> expected;
  for (const LockstepChain<Step>& chain : chains) {
    expected.push_back(OneChain(chain.value, chain.step, n));
  }
  StepInLockstep(std::span(chains), n);
  for (std::size_t i = 0; i < chains.size(); ++i) {
    EXPECT_EQ(std::memcmp(&chains[i].value, &expected[i], sizeof(double)), 0)
        << label << " chain " << i << ": " << chains[i].value << " vs " << expected[i];
  }
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

TEST(LockstepTest, FixedChainsAreLeftUntouched) {
  // Chains at their fixed point, including a zero whose successor is the
  // other zero (-0.0 steps to +0.0 and == holds, so the one-chain loop stops
  // at once and so must the stepper).
  std::vector<LockstepChain<ExpAverage::Recurrence>> chains = {
      {-0.0, {0.0, 0.5}}, {kInf, {1.0, 0.5}}, {-kInf, {1.0, 0.5}}, {2.0, {1.0, 0.5}}};
  const std::vector<LockstepChain<ExpAverage::Recurrence>> before = chains;
  StepInLockstep(std::span(chains), 1'000);
  for (std::size_t i = 0; i < chains.size(); ++i) {
    EXPECT_EQ(std::memcmp(&chains[i].value, &before[i].value, sizeof(double)), 0) << i;
  }
}

TEST(LockstepTest, NonFiniteValuesMatch) {
  // NaN never compares equal, so a NaN chain runs every step; infinities
  // are fixed at once, or turn to NaN against an opposite infinite target.
  for (const std::int64_t n : {1, 31, 33, 10'000}) {
    std::vector<LockstepChain<RcThermalModel::Recurrence>> temperatures = {
        {kNaN, {40.0, 0.9}},  {kInf, {40.0, 0.9}},    {-kInf, {40.0, 0.9}}, {30.0, {kInf, 0.9}},
        {30.0, {-kInf, 0.9}}, {kInf, {-kInf, 0.9}},   {30.0, {40.0, kInf}}, {30.0, {40.0, 0.9}},
        {-1.0, {40.0, 0.5}}};
    ExpectMatchesOneChain(temperatures, n, "temperature n=" + std::to_string(n));
    std::vector<LockstepChain<ExpAverage::Recurrence>> averages = {
        {kNaN, {4.0, 0.9}},  {kInf, {4.0, 0.9}},  {-kInf, {4.0, 0.9}}, {3.0, {kInf, 0.9}},
        {3.0, {-kInf, 0.9}}, {-kInf, {kInf, 0.9}}, {3.0, {4.0, kInf}}, {3.0, {4.0, 0.5}}};
    ExpectMatchesOneChain(averages, n, "average n=" + std::to_string(n));
  }
}

TEST(LockstepTest, ZeroFlipRecomputesTheLane) {
  // t + (x - t) * d with t = -0.0, d = 0.5: the smallest negative subnormal
  // steps to -0.0, which steps to +0.0. The one-chain loop stops at -0.0
  // (+0.0 == -0.0); the lockstep lane steps on to +0.0 and must be
  // recomputed. The neighbours settle fast (the block stops at the first
  // chunk boundary) or never (the block runs every step).
  const double tiny = -std::numeric_limits<double>::denorm_min();
  const RcThermalModel::Recurrence flip{-0.0, 0.5};
  EXPECT_TRUE(std::signbit(OneChain(tiny, flip, 10'000)));
  for (const double neighbour_decay : {0.5, 1.0 - 1.0 / 12'000.0}) {
    for (const std::int64_t n : {1, 2, 3, 31, 33, 10'000}) {
      std::vector<LockstepChain<RcThermalModel::Recurrence>> chains(
          9, {25.0, {40.0, neighbour_decay}});
      chains[3] = {tiny, flip};
      ExpectMatchesOneChain(chains, n, "temperature flip n=" + std::to_string(n));
    }
  }
  // The average's form flips with a negative decay: -0.0 steps to +0.0
  // and +0.0 back to -0.0, so the lane ends on either zero by parity.
  const ExpAverage::Recurrence oscillate{-0.0, -0.5};
  for (const std::int64_t n : {1, 2, 3, 32, 33, 10'000}) {
    std::vector<LockstepChain<ExpAverage::Recurrence>> chains = {
        {std::numeric_limits<double>::denorm_min(), oscillate}, {5.0, {1.0, 0.5}}};
    ExpectMatchesOneChain(chains, n, "average flip n=" + std::to_string(n));
  }
}

TEST(LockstepTest, SharesTheClassesPerTickRecurrence) {
  // The recurrence a class hands the stepper is the one its per-tick path
  // applies: stepping it n times equals n per-tick calls.
  constexpr std::int64_t kSteps = 5'000;
  ExpAverage average = ExpAverage::WithTimeConstant(12.0, 0.001);
  average.Reset(30.0);
  RcThermalModel model(ThermalParams{});
  model.SetTemperature(55.0);
  std::vector<LockstepChain<ExpAverage::Recurrence>> averages = {
      {average.value(), average.RecurrenceFor(7.5, 0.001)}};
  std::vector<LockstepChain<RcThermalModel::Recurrence>> temperatures = {
      {model.temperature(), model.RecurrenceFor(7.5, 0.001)}};
  for (std::int64_t i = 0; i < kSteps; ++i) {
    average.AddRateSample(7.5, 0.001);
    model.Step(7.5, 0.001);
  }
  StepInLockstep(std::span(averages), kSteps);
  StepInLockstep(std::span(temperatures), kSteps);
  EXPECT_EQ(averages[0].value, average.value());
  EXPECT_EQ(temperatures[0].value, model.temperature());
}

}  // namespace
}  // namespace eas
