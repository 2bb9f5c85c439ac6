#include "src/sim/scenario_cache.h"

#include <utility>

namespace eas {

std::shared_ptr<const ExperimentSpec> ScenarioCache::Scenario(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = scenarios_.find(name);
  if (it != scenarios_.end()) {
    ++stats_.scenario_hits;
    return it->second;
  }
  ++stats_.scenario_misses;
  auto spec = std::make_shared<const ExperimentSpec>(registry_->BuildOrThrow(name));
  scenarios_.emplace(name, spec);
  return spec;
}

std::shared_ptr<const ProgramLibrary> ScenarioCache::DefaultLibrary(const EnergyModel& model) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (library_ != nullptr) {
    ++stats_.library_hits;
    return library_;
  }
  ++stats_.library_misses;
  library_ = std::make_shared<const ProgramLibrary>(model);
  return library_;
}

ScenarioCache::Stats ScenarioCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace eas
