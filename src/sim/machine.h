// The simulated multiprocessor machine: the (state, engine) pair.
//
// Stands in for the paper's IBM xSeries 445 plus modified Linux kernel. The
// state (runqueues, counters, power metrics, thermal models, tasks) lives in
// SimulationState, which is also the BalanceEnv every balancing policy runs
// against; the per-tick behaviour lives in the SimulationEngine's phase
// components, with balancing policies resolved by name through the
// BalancePolicyRegistry. Machine only owns the two and validates the
// configuration up front: callers spawn, observe and migrate through
// state(), and attach observers through engine().

#ifndef SRC_SIM_MACHINE_H_
#define SRC_SIM_MACHINE_H_

#include "src/sim/machine_config.h"
#include "src/sim/simulation_engine.h"
#include "src/sim/simulation_state.h"

namespace eas {

class Machine {
 public:
  // Throws std::invalid_argument if the configured balancing policy or
  // frequency governor name is not registered.
  explicit Machine(const MachineConfig& config);

  // Advances by `n` ticks (skip-ahead applies where the config allows it).
  void Run(Tick n) { engine_.Advance(state_, n); }

  SimulationState& state() { return state_; }
  const SimulationState& state() const { return state_; }
  SimulationEngine& engine() { return engine_; }

 private:
  SimulationState state_;
  SimulationEngine engine_;
};

}  // namespace eas

#endif  // SRC_SIM_MACHINE_H_
