#include "src/sim/scenario.h"

#include <stdexcept>
#include <utility>

namespace eas {

ScenarioRegistry& ScenarioRegistry::Global() {
  static ScenarioRegistry* registry = [] {
    auto* r = new ScenarioRegistry();
    RegisterBuiltinScenarios(*r);
    return r;
  }();
  return *registry;
}

bool ScenarioRegistry::Register(const std::string& name, const std::string& description,
                                Factory factory) {
  return Registry::Register(name, ScenarioEntry{description, std::move(factory)});
}

ExperimentSpec ScenarioRegistry::BuildOrThrow(const std::string& name) const {
  const std::optional<ScenarioEntry> entry = Find(name);
  if (!entry.has_value()) {
    throw std::invalid_argument(UnknownMessage("scenario", name));
  }
  ExperimentSpec spec = entry->factory();
  spec.name = name;
  return spec;
}

std::vector<ScenarioRegistry::Info> ScenarioRegistry::List() const {
  std::vector<Info> infos;
  for (const std::string& name : Names()) {
    infos.push_back(Info{name, Find(name)->description});
  }
  return infos;
}

}  // namespace eas
