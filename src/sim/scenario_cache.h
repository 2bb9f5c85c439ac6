// ScenarioCache: memoized scenario builds and the shared program library.
//
// Resolving a RunRequest is cheap except for two rebuild-per-request costs:
// a scenario factory regenerates its whole workload (program models plus
// every timed arrival - the datacenter-consolidation scenario synthesizes
// ~16k arrivals), and a non-scenario request constructs a fresh
// ProgramLibrary. A one-shot CLI run pays that once; a resident service
// (src/service) resolving thousands of requests against one warm process
// must not pay it per request. The cache memoizes both:
//
//   scenario specs     built once per name on first use, then shared. A
//                      factory is deterministic data -> data, so handing
//                      every request a copy of one build is observationally
//                      identical to rebuilding (spec copies share
//                      the immutable programs via the workload's
//                      shared_ptr ownership, exactly as seed sweeps always
//                      have).
//   program library    the default-model library non-scenario requests
//                      draw their programs from. The model is part of the
//                      default MachineConfig and identical for every such
//                      request, so one library serves them all; it is
//                      immutable after construction and safe to share
//                      across threads.
//
// Thread-safe; hit/miss counters feed the service status endpoint.

#ifndef SRC_SIM_SCENARIO_CACHE_H_
#define SRC_SIM_SCENARIO_CACHE_H_

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "src/sim/scenario.h"
#include "src/workloads/programs.h"

namespace eas {

class ScenarioCache {
 public:
  // Builds against the process-wide ScenarioRegistry::Global().
  ScenarioCache() : registry_(&ScenarioRegistry::Global()) {}

  // Tests inject private registries.
  explicit ScenarioCache(const ScenarioRegistry& registry) : registry_(&registry) {}

  // The cached spec for `name`, built on first use. Throws
  // std::invalid_argument (the registry's own diagnostic) for an unknown
  // name - callers gate on Contains() first, same as the uncached path.
  std::shared_ptr<const ExperimentSpec> Scenario(const std::string& name);

  // The shared default-model program library, built on first use.
  std::shared_ptr<const ProgramLibrary> DefaultLibrary(const EnergyModel& model);

  struct Stats {
    std::size_t scenario_hits = 0;
    std::size_t scenario_misses = 0;
    std::size_t library_hits = 0;
    std::size_t library_misses = 0;
  };
  Stats stats() const;

 private:
  const ScenarioRegistry* registry_;
  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<const ExperimentSpec>> scenarios_;
  std::shared_ptr<const ProgramLibrary> library_;
  Stats stats_;
};

}  // namespace eas

#endif  // SRC_SIM_SCENARIO_CACHE_H_
