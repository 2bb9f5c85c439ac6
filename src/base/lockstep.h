// Lockstep stepping of independent scalar recurrences: the skip-ahead
// kernel's inner loop.
//
// A quiescent span advances every CPU's thermal-power average and every
// package's RC temperature by the same number of ticks, each through its own
// per-tick recurrence x <- step(x). Run one chain after another, every step
// waits on the previous step's dependent multiply-add. StepInLockstep
// gathers chains into blocks of kLockstepLanes and steps a block's chains
// side by side, so the core overlaps their latencies.
//
// Exactness: every chain ends bit-identical to the one-chain loop
//
//   for (; n > 0; --n) {
//     const double next = step(value);
//     if (next == value) break;
//     value = next;
//   }
//
// Each lane performs that loop's operations in its order and departs from
// it only where a fixed point hides the difference:
//  - a chain already at a fixed point (step(value) == value) is not touched;
//  - a block stops at the first kLockstepChunk-step boundary at which every
//    lane is at a fixed point. A value that steps to itself bit for bit
//    steps to itself forever, so stopping there or stepping on is the same;
//  - `==` also holds between +0.0 and -0.0, so the one-chain loop can stop
//    on a zero whose successor is the other zero while a lane steps on.
//    From there the lane only moves between the two zeros (the requirement
//    on Step below), so a lane that ends at a zero is recomputed with the
//    one-chain loop. No real input reaches this case.
//
// Requirement on Step (a copyable callable double -> double): when a zero
// steps to a zero, every later iterate is a zero. Both affine forms the
// engine steps meet it: a + b * x (ExpAverage) and t + (x - t) * d
// (RcThermalModel).

#ifndef SRC_BASE_LOCKSTEP_H_
#define SRC_BASE_LOCKSTEP_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>

namespace eas {

// Chains stepped side by side per block.
inline constexpr std::size_t kLockstepLanes = 8;
// Steps between the block's fixed-point checks. Testing every step costs
// more than the steps a check can save; 32 keeps the wasted tail short.
inline constexpr std::int64_t kLockstepChunk = 32;

// One recurrence: its current value and the step it repeats.
template <typename Step>
struct LockstepChain {
  double value;
  Step step;
};

namespace lockstep_internal {

template <typename Step>
double StepOneChain(double value, const Step& step, std::int64_t n) {
  for (; n > 0; --n) {
    const double next = step(value);
    if (next == value) {
      break;
    }
    value = next;
  }
  return value;
}

// Steps `live` (1..kLockstepLanes) chains `n` times side by side.
template <typename Step>
void StepBlock(LockstepChain<Step>* const* chains, std::size_t live, std::int64_t n) {
  double value[kLockstepLanes];
  Step step[kLockstepLanes];
  for (std::size_t lane = 0; lane < kLockstepLanes; ++lane) {
    // A short block pads its lanes with copies of its first chain, whose
    // results are dropped.
    const LockstepChain<Step>& chain = *chains[lane < live ? lane : 0];
    value[lane] = chain.value;
    step[lane] = chain.step;
  }
  for (std::int64_t left = n; left > 0;) {
    const std::int64_t chunk = std::min(left, kLockstepChunk);
    for (std::int64_t k = 0; k < chunk; ++k) {
      for (std::size_t lane = 0; lane < kLockstepLanes; ++lane) {
        value[lane] = step[lane](value[lane]);
      }
    }
    left -= chunk;
    bool fixed = true;
    for (std::size_t lane = 0; lane < kLockstepLanes; ++lane) {
      fixed &= step[lane](value[lane]) == value[lane];
    }
    if (fixed) {
      break;
    }
  }
  for (std::size_t lane = 0; lane < live; ++lane) {
    LockstepChain<Step>& chain = *chains[lane];
    chain.value = value[lane] == 0.0 ? StepOneChain(chain.value, step[lane], n) : value[lane];
  }
}

}  // namespace lockstep_internal

// Advances every chain by `n` steps, bit-identically to running the
// one-chain loop above on each chain in turn.
template <typename Step>
void StepInLockstep(std::span<LockstepChain<Step>> chains, std::int64_t n) {
  if (n <= 0) {
    return;
  }
  LockstepChain<Step>* block[kLockstepLanes];
  std::size_t live = 0;
  for (LockstepChain<Step>& chain : chains) {
    if (chain.step(chain.value) == chain.value) {
      continue;
    }
    block[live++] = &chain;
    if (live == kLockstepLanes) {
      lockstep_internal::StepBlock(block, live, n);
      live = 0;
    }
  }
  if (live > 0) {
    lockstep_internal::StepBlock(block, live, n);
  }
}

}  // namespace eas

#endif  // SRC_BASE_LOCKSTEP_H_
