// The two single-metric balancing algorithms the paper rejects (Section 4.3)
// - implemented for real so the failure modes are measurable:
//
//  * PowerOnlyBalancer decides on runqueue power alone. Power reacts
//    instantly, so two CPUs can keep trading the same task: the pull flips
//    the power comparison immediately and the next balancing pass on the
//    other CPU pulls it back ("ping-pong effects").
//
//  * TemperatureOnlyBalancer decides on thermal power alone. Temperature
//    lags: after all hot tasks left a CPU it *still* looks hot, so the
//    balancer keeps pulling until the imbalance is flipped in the opposite
//    direction ("over-balancing"), which later needs correcting again.
//
// Both reuse the load-step of the baseline balancer so fairness stays
// intact; only the energy step differs from the paper's dual-metric design.

#ifndef SRC_CORE_NAIVE_BALANCERS_H_
#define SRC_CORE_NAIVE_BALANCERS_H_

#include "src/sched/balance_env.h"
#include "src/sched/balance_policy.h"

namespace eas {

// How far the remote group's metric must exceed the local group's before a
// strawman pulls heat - the real balancer's default margin.
inline constexpr double kNaiveRatioMargin = 0.04;

class PowerOnlyBalancer : public BalancePolicy {
 public:
  // One pass for `cpu`; returns tasks migrated.
  int Balance(int cpu, BalanceEnv& env) override;

  // Idle-machine no-op (skip-ahead capability): NaiveBalance only pulls from
  // queues with nr_running() >= 2 and the trailing load step exits on the
  // min-imbalance guard, so an all-idle pass mutates nothing.
  bool IdleMachineIsNoop() const override { return true; }
};

class TemperatureOnlyBalancer : public BalancePolicy {
 public:
  int Balance(int cpu, BalanceEnv& env) override;

  // Idle-machine no-op (skip-ahead capability): same shape as
  // PowerOnlyBalancer - NaiveBalance's nr_running() >= 2 pull guard plus the
  // load step's min-imbalance exit.
  bool IdleMachineIsNoop() const override { return true; }
};

}  // namespace eas

#endif  // SRC_CORE_NAIVE_BALANCERS_H_
