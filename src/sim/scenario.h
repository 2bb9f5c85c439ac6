// Declarative scenarios: named, fully-specified experiments.
//
// A scenario is an ExperimentSpec built by name: everything one run needs -
// machine topology, cooling, thermal/throttle settings, scheduling policy,
// duration, seed and the workload (with timed arrivals) - so a scenario can
// be selected from a tool or bench and fanned through the parallel
// ExperimentRunner without touching engine code, mirroring how balancing
// policies are selected through the BalancePolicyRegistry.
//
// Built-in scenarios (the paper's workload mixes plus arrival-driven and
// phase-shift stressors, see src/sim/builtin_scenarios.cc) are registered on
// first access of ScenarioRegistry::Global(); new scenarios register a
// factory at runtime:
//
//   ScenarioRegistry::Global().Register(
//       "my-scenario", "one line of what it stresses", [] {
//         ExperimentSpec spec;
//         spec.config...; spec.options...; spec.workload...;
//         return spec;
//       });
//
// Factories build a fresh spec per call, so callers may freely override
// policy, duration or seed on the result. BuildOrThrow names the spec after
// the scenario.

#ifndef SRC_SIM_SCENARIO_H_
#define SRC_SIM_SCENARIO_H_

#include <functional>
#include <string>
#include <vector>

#include "src/base/registry.h"
#include "src/sim/experiment_runner.h"

namespace eas {

// A registered scenario: its one-line description and its factory.
struct ScenarioEntry {
  std::string description;
  std::function<ExperimentSpec()> factory;
};

// Default-constructs empty (tests build private ones; Global() is the
// shared, builtin-populated instance).
class ScenarioRegistry : public Registry<ScenarioEntry> {
 public:
  using Factory = std::function<ExperimentSpec()>;

  struct Info {
    std::string name;
    std::string description;
  };

  // The process-wide registry, with the built-in scenarios pre-registered.
  static ScenarioRegistry& Global();

  // Registers `factory` under `name`. Returns false (and leaves the existing
  // entry) if the name is already taken.
  bool Register(const std::string& name, const std::string& description, Factory factory);

  // Builds a fresh spec for `name`; throws std::invalid_argument naming the
  // known scenarios when `name` is unknown.
  ExperimentSpec BuildOrThrow(const std::string& name) const;

  // (name, description) of every registered scenario, sorted by name.
  std::vector<Info> List() const;
};

// Registers the built-in scenarios into `registry` (exposed for tests that
// build private registries; Global() already includes them).
void RegisterBuiltinScenarios(ScenarioRegistry& registry);

}  // namespace eas

#endif  // SRC_SIM_SCENARIO_H_
