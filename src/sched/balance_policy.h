// Uniform interface over the balancing algorithms.
//
// Every balancing policy - the stock load balancer, the paper's merged
// energy/load balancer, and the single-metric strawmen - is a periodic
// per-CPU pass over a BalanceEnv. The simulation engine holds one
// BalancePolicy chosen by name through the BalancePolicyRegistry (src/core),
// so new policies plug in without touching the engine.

#ifndef SRC_SCHED_BALANCE_POLICY_H_
#define SRC_SCHED_BALANCE_POLICY_H_

#include "src/sched/balance_env.h"

namespace eas {

class BalancePolicy {
 public:
  virtual ~BalancePolicy() = default;

  // One balancing pass for `cpu`. Returns the number of tasks migrated.
  virtual int Balance(int cpu, BalanceEnv& env) = 0;

  // True when one Balance() pass over a machine whose runqueues are *all*
  // empty is guaranteed to be a no-op: no env or policy state mutated, no
  // RNG drawn, nothing observable. The engine's quiescent-span skip-ahead
  // relies on this to elide idle-interval balance passes; a policy must opt
  // in explicitly (the builtins do, with the proof at their override).
  // The conservative default keeps an unknown policy on the naive
  // tick-by-tick path, so skip-ahead can never change its behaviour.
  virtual bool IdleMachineIsNoop() const { return false; }
};

}  // namespace eas

#endif  // SRC_SCHED_BALANCE_POLICY_H_
