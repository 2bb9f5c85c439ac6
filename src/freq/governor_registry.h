// Name -> factory registry for frequency governors.
//
// The FrequencyPhase selects its governor by string
// (MachineConfig::frequency_governor), so experiments switch DVFS policies
// from configuration or `eastool --governor` without touching engine code -
// the exact pattern BalancePolicyRegistry established for balancing
// policies. Built-in governors ("none", "thermal-stepdown", "ondemand") are
// registered on first access; additional governors can be registered at
// runtime. Factories build one instance per physical package, so governors
// may keep per-package state as plain members.

#ifndef SRC_FREQ_GOVERNOR_REGISTRY_H_
#define SRC_FREQ_GOVERNOR_REGISTRY_H_

#include <functional>
#include <memory>
#include <string>

#include "src/base/registry.h"
#include "src/freq/frequency_governor.h"

namespace eas {

// Default-constructs empty (tests build private ones; Global() is the
// shared, builtin-populated instance).
class FrequencyGovernorRegistry
    : public Registry<std::function<std::unique_ptr<FrequencyGovernor>()>> {
 public:
  using Factory = Entry;

  // The process-wide registry, with the built-in governors pre-registered.
  static FrequencyGovernorRegistry& Global();

  // Builds the governor registered under `name`; nullptr if unknown.
  std::unique_ptr<FrequencyGovernor> Create(const std::string& name) const;

  // Like Create, but throws std::invalid_argument naming the known governors
  // when `name` is unknown - the Machine's fail-fast construction path.
  std::unique_ptr<FrequencyGovernor> CreateOrThrow(const std::string& name) const;
};

// Registers the built-in governors into `registry` (exposed for tests that
// build private registries; Global() already includes them).
void RegisterBuiltinGovernors(FrequencyGovernorRegistry& registry);

}  // namespace eas

#endif  // SRC_FREQ_GOVERNOR_REGISTRY_H_
