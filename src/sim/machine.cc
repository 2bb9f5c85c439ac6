#include "src/sim/machine.h"

#include "src/freq/governor_registry.h"

namespace eas {

Machine::Machine(const MachineConfig& config) : state_(config), engine_(config.sched) {
  // Fail fast on an unknown frequency governor, mirroring the policy
  // registry throw from the engine's BalancePhase (the engine itself only
  // resolves the governor lazily on the first tick).
  FrequencyGovernorRegistry::Global().CreateOrThrow(config.frequency_governor);
}

}  // namespace eas
