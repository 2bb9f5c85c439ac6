#include "src/topo/frequency_domain.h"

#include <stdexcept>

namespace eas {

PStateTable::PStateTable(std::vector<PState> states) : states_(std::move(states)) {
  // Throws rather than asserts: a malformed table in a Release build would
  // otherwise index an empty vector every tick, or silently break the
  // ungoverned bit-identity guarantee (which relies on P0 being exactly
  // full speed at nominal voltage).
  if (states_.empty()) {
    throw std::invalid_argument("PStateTable needs at least one P-state");
  }
  if (states_[0].frequency_multiplier != 1.0 || states_[0].voltage != 1.0) {
    throw std::invalid_argument("PStateTable's P0 must be (1.0, 1.0)");
  }
}

PStateTable PStateTable::Default() {
  return PStateTable({
      PState{1.00, 1.00},
      PState{0.87, 0.95},
      PState{0.75, 0.90},
      PState{0.62, 0.85},
      PState{0.50, 0.80},
  });
}

FrequencyDomain::FrequencyDomain(const PStateTable& table)
    : table_(table), residency_(table_.size(), 0) {}

void FrequencyDomain::SetPState(std::size_t index) {
  current_ = index >= table_.size() ? table_.deepest() : index;
}

void FrequencyDomain::AccountTick() {
  ++residency_[current_];
  ++total_ticks_;
  multiplier_ticks_ += frequency_multiplier();
}

double FrequencyDomain::ResidencyFraction(std::size_t pstate) const {
  if (total_ticks_ == 0) {
    return 0.0;
  }
  return static_cast<double>(residency_[pstate]) / static_cast<double>(total_ticks_);
}

double FrequencyDomain::AverageFrequency() const {
  if (total_ticks_ == 0) {
    return 1.0;
  }
  return multiplier_ticks_ / static_cast<double>(total_ticks_);
}

}  // namespace eas
