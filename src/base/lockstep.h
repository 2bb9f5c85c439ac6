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
// It takes two families of chains with different step types (the engine
// passes the package temperatures and the CPU averages) and steps the i-th
// block of each in one loop. A family's blocks stepped on their own would
// each wait out their own dependency chain per step (about 12 cycles for
// the temperatures' subtract-multiply-add, then 8 for the averages'
// multiply-add); paired, the averages run in the shadow of the
// temperatures, and the compiler packs the pair's lanes into two-wide
// vector operations. The longer family's surplus blocks step alone.
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
//    lane is at a fixed point; a paired block, where every lane of both
//    blocks is. A value that steps to itself bit for bit steps to itself
//    forever, so stopping there or stepping on is the same. For the same
//    reason a lane that reaches its fixed point while the rest of its block
//    or its partner block still moves may step on in place;
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

// Gathers into `block` the next chains of `chains` from `*next` on that are
// not at a fixed point, at most kLockstepLanes of them; returns how many.
template <typename Step>
std::size_t GatherBlock(std::span<LockstepChain<Step>> chains, std::size_t* next,
                        LockstepChain<Step>** block) {
  std::size_t live = 0;
  for (; *next < chains.size() && live < kLockstepLanes; ++*next) {
    LockstepChain<Step>& chain = chains[*next];
    if (chain.step(chain.value) != chain.value) {
      block[live++] = &chain;
    }
  }
  return live;
}

// Loads the lanes of a block of `live` (1..kLockstepLanes) chains. A short
// block pads its lanes with copies of its first chain, whose results are
// dropped.
template <typename Step>
void LoadLanes(LockstepChain<Step>* const* chains, std::size_t live, double* value, Step* step) {
  for (std::size_t lane = 0; lane < kLockstepLanes; ++lane) {
    const LockstepChain<Step>& chain = *chains[lane < live ? lane : 0];
    value[lane] = chain.value;
    step[lane] = chain.step;
  }
}

template <typename Step>
void StepLanes(double* value, const Step* step) {
  for (std::size_t lane = 0; lane < kLockstepLanes; ++lane) {
    value[lane] = step[lane](value[lane]);
  }
}

template <typename Step>
bool LanesFixed(const double* value, const Step* step) {
  bool fixed = true;
  for (std::size_t lane = 0; lane < kLockstepLanes; ++lane) {
    fixed &= step[lane](value[lane]) == value[lane];
  }
  return fixed;
}

// Writes the live lanes back after `n` steps; a lane that ends at a zero is
// recomputed with the one-chain loop.
template <typename Step>
void StoreLanes(LockstepChain<Step>* const* chains, std::size_t live, const double* value,
                const Step* step, std::int64_t n) {
  for (std::size_t lane = 0; lane < live; ++lane) {
    LockstepChain<Step>& chain = *chains[lane];
    chain.value = value[lane] == 0.0 ? StepOneChain(chain.value, step[lane], n) : value[lane];
  }
}

// Steps one block `n` times side by side, until every lane is at a fixed
// point.
template <typename Step>
void StepBlock(LockstepChain<Step>* const* chains, std::size_t live, std::int64_t n) {
  double value[kLockstepLanes] = {};
  Step step[kLockstepLanes] = {};
  LoadLanes(chains, live, value, step);
  for (std::int64_t left = n; left > 0;) {
    const std::int64_t chunk = std::min(left, kLockstepChunk);
    for (std::int64_t k = 0; k < chunk; ++k) {
      StepLanes(value, step);
    }
    left -= chunk;
    if (LanesFixed(value, step)) {
      break;
    }
  }
  StoreLanes(chains, live, value, step, n);
}

// Steps a block of each family `n` times in one loop, until every lane of
// both blocks is at a fixed point.
template <typename StepA, typename StepB>
void StepBlockPair(LockstepChain<StepA>* const* chains_a, std::size_t live_a,
                   LockstepChain<StepB>* const* chains_b, std::size_t live_b, std::int64_t n) {
  double value_a[kLockstepLanes] = {};
  StepA step_a[kLockstepLanes] = {};
  double value_b[kLockstepLanes] = {};
  StepB step_b[kLockstepLanes] = {};
  LoadLanes(chains_a, live_a, value_a, step_a);
  LoadLanes(chains_b, live_b, value_b, step_b);
  for (std::int64_t left = n; left > 0;) {
    const std::int64_t chunk = std::min(left, kLockstepChunk);
    for (std::int64_t k = 0; k < chunk; ++k) {
      StepLanes(value_a, step_a);
      StepLanes(value_b, step_b);
    }
    left -= chunk;
    // Both checks run: a short-circuit branch here keeps GCC from packing
    // the lanes above into vector operations.
    bool fixed = LanesFixed(value_a, step_a);
    fixed &= LanesFixed(value_b, step_b);
    if (fixed) {
      break;
    }
  }
  StoreLanes(chains_a, live_a, value_a, step_a, n);
  StoreLanes(chains_b, live_b, value_b, step_b, n);
}

}  // namespace lockstep_internal

// Advances every chain of both families by `n` steps, bit-identically to
// running the one-chain loop above on each chain in turn. Either family may
// be empty. The i-th blocks of the two families step in one loop; the
// longer family's surplus blocks step alone.
template <typename StepA, typename StepB>
void StepInLockstep(std::span<LockstepChain<StepA>> first,
                    std::span<LockstepChain<StepB>> second, std::int64_t n) {
  if (n <= 0) {
    return;
  }
  LockstepChain<StepA>* block_a[kLockstepLanes] = {};
  LockstepChain<StepB>* block_b[kLockstepLanes] = {};
  std::size_t next_a = 0;
  std::size_t next_b = 0;
  for (;;) {
    const std::size_t live_a = lockstep_internal::GatherBlock(first, &next_a, block_a);
    const std::size_t live_b = lockstep_internal::GatherBlock(second, &next_b, block_b);
    if (live_a > 0 && live_b > 0) {
      lockstep_internal::StepBlockPair(block_a, live_a, block_b, live_b, n);
    } else if (live_a > 0) {
      lockstep_internal::StepBlock(block_a, live_a, n);
    } else if (live_b > 0) {
      lockstep_internal::StepBlock(block_b, live_b, n);
    } else {
      return;
    }
  }
}

}  // namespace eas

#endif  // SRC_BASE_LOCKSTEP_H_
