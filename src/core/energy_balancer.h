// Merged energy and load balancing (paper Section 4.4, Figure 4).
//
// Runs on every CPU and pulls only. For every domain level bottom-up:
//
//  Energy step (skipped in domains flagged kDomainNoEnergyBalance):
//    1. find the CPU group with the highest average runqueue power ratio;
//    2. if it is not the local group AND the remote group is hotter (thermal
//       power ratio - slow, provides hysteresis) AND consuming more (runqueue
//       power ratio - fast, forbids pulling an undue number of tasks),
//       migrate the hottest queued task from the group's hottest queue here;
//    3. if that created a load imbalance, migrate a cool task back.
//
//  Load step:
//    4. find the group with the highest average runqueue length; if the
//       imbalance is large enough, pull from the longest queue - picking a
//       hot task if the remote group is hotter, a cool one if it is cooler,
//       so load balancing does not destroy energy balance.
//
// Imbalances are resolved in the lowest (cheapest) domain possible.

#ifndef SRC_CORE_ENERGY_BALANCER_H_
#define SRC_CORE_ENERGY_BALANCER_H_

#include "src/sched/balance_env.h"
#include "src/sched/load_balancer.h"

namespace eas {

class EnergyLoadBalancer : public BalancePolicy {
 public:
  struct Options {
    // The remote group must exceed the local group by these margins in
    // thermal power ratio / runqueue power ratio before heat is pulled.
    // The dual condition is the paper's ping-pong/over-balancing defence.
    double thermal_ratio_margin = 0.04;
    double rq_ratio_margin = 0.04;
  };

  // Pulling a task must actually reduce the power-ratio spread: the pulled
  // task's profile must exceed the local runqueue power by this factor...
  static constexpr double kMinTaskGain = 1.02;
  // ...and the hypothetical post-migration ratio gap between the two queues
  // must shrink by at least this factor (over-balancing defence: a pull that
  // would merely flip the imbalance is rejected).
  static constexpr double kMinGapShrink = 0.85;

  explicit EnergyLoadBalancer(const Options& options);

  struct Result {
    int energy_migrations = 0;    // hot pulls from the energy step
    int exchange_migrations = 0;  // cool tasks pushed back in exchange
    int load_migrations = 0;      // pulls from the load step

    int total() const { return energy_migrations + exchange_migrations + load_migrations; }
  };

  // One balancing pass for `cpu` (both steps, every level), per step.
  Result BalanceSteps(int cpu, BalanceEnv& env) const;

  // The same pass; returns the total migrations.
  int Balance(int cpu, BalanceEnv& env) override { return BalanceSteps(cpu, env).total(); }

  // Idle-machine no-op guarantee (the engine's skip-ahead capability flag):
  // with every runqueue empty the energy step returns at its
  // remote.nr_running() < 2 guard and the load step inherits
  // LoadBalancer's min-imbalance exit, so a pass only reads aggregates
  // (the per-pass BalanceAggregateCache is reset on every pass, so skipped
  // passes leave nothing stale behind) and draws no RNG.
  bool IdleMachineIsNoop() const override { return true; }

 private:
  Options options_;

  // Returns migrations performed by the energy step at this domain.
  Result EnergyStep(int cpu, const SchedDomain& domain, const CpuGroup& local_group,
                    BalanceEnv& env) const;
  // Returns pulls performed by the load step at this domain.
  int LoadStep(int cpu, const SchedDomain& domain, const CpuGroup& local_group,
               BalanceEnv& env) const;
};

}  // namespace eas

#endif  // SRC_CORE_ENERGY_BALANCER_H_
