#include "src/sim/frequency_phase.h"

#include "src/freq/governor_registry.h"

namespace eas {

void FrequencyPhase::EnsureGovernors(SimulationState& state) {
  if (!state.config().governed()) {
    initialized_ = true;
    active_ = false;
    return;
  }
  // Build the full set before committing any flags: CreateOrThrow may throw
  // on an unknown name, and a caller that catches and ticks again must find
  // the phase un-initialized, not active over an empty governor vector.
  const std::string& name = state.config().frequency_governor;
  std::vector<std::unique_ptr<FrequencyGovernor>> governors;
  const std::size_t physical = state.num_physical();
  governors.reserve(physical);
  for (std::size_t phys = 0; phys < physical; ++phys) {
    governors.push_back(FrequencyGovernorRegistry::Global().CreateOrThrow(name));
  }
  governors_ = std::move(governors);
  initialized_ = true;
  active_ = true;
}

void FrequencyPhase::GovernPackage(SimulationState& state, std::size_t physical,
                                   bool package_throttled) {
  if (!initialized_) {
    // easlint: allow(shard-confinement) -- first-call lazy init: the package-parallel pipeline calls EnsureReady() from a single thread before fanning out, so inside the parallel region initialized_ is always true and this branch never runs.
    EnsureGovernors(state);
  }
  if (!active_) {
    return;
  }

  const CpuTopology& topology = state.config().topology;
  const std::size_t siblings = topology.smt_per_physical();
  std::size_t runnable = 0;
  for (std::size_t t = 0; t < siblings; ++t) {
    if (!state.runqueue(topology.LogicalId(physical, t)).Idle()) {
      ++runnable;
    }
  }

  FrequencyDomain& domain = state.freq_domain(physical);
  GovernorInputs inputs;
  inputs.now = state.now();
  inputs.current_pstate = domain.current();
  inputs.num_pstates = domain.table().size();
  inputs.thermal_power_watts = state.PackageThermalPower(physical);
  inputs.budget_watts = state.MaxPowerPhysical(physical);
  inputs.hysteresis_watts = kThrottleHysteresisWatts;
  inputs.utilization = static_cast<double>(runnable) / static_cast<double>(siblings);
  inputs.package_throttled = package_throttled;

  domain.SetPState(governors_[physical]->DecidePState(inputs));
  // Fault overrides trump the governor's decision: a thermal emergency
  // forces the deepest P-state for the window; a clamp floors the index
  // (deeper-than-floor governor choices stand - the clamp only forbids
  // running *faster* than the floor).
  if (state.config().faulted()) {
    if (state.EmergencyActive(physical)) {
      domain.SetPState(domain.table().deepest());
    } else if (state.ClampActive(physical) && domain.current() < state.clamp_floor(physical)) {
      domain.SetPState(state.clamp_floor(physical));
    }
  }
  domain.AccountTick();
}

}  // namespace eas
