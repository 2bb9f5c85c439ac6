#include "src/freq/governor_registry.h"

#include <stdexcept>

#include "src/freq/governors.h"

namespace eas {

void RegisterBuiltinGovernors(FrequencyGovernorRegistry& registry) {
  registry.Register("none", [] { return std::make_unique<NoneGovernor>(); });
  registry.Register("thermal-stepdown",
                    [] { return std::make_unique<ThermalStepdownGovernor>(); });
  registry.Register("ondemand", [] { return std::make_unique<OndemandGovernor>(); });
}

FrequencyGovernorRegistry& FrequencyGovernorRegistry::Global() {
  static FrequencyGovernorRegistry* registry = [] {
    auto* r = new FrequencyGovernorRegistry();
    RegisterBuiltinGovernors(*r);
    return r;
  }();
  return *registry;
}

std::unique_ptr<FrequencyGovernor> FrequencyGovernorRegistry::Create(
    const std::string& name) const {
  const std::optional<Factory> factory = Find(name);
  return factory.has_value() ? (*factory)() : nullptr;
}

std::unique_ptr<FrequencyGovernor> FrequencyGovernorRegistry::CreateOrThrow(
    const std::string& name) const {
  std::unique_ptr<FrequencyGovernor> governor = Create(name);
  if (governor == nullptr) {
    throw std::invalid_argument(UnknownMessage("frequency governor", name));
  }
  return governor;
}

}  // namespace eas
