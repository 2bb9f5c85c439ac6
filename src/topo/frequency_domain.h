// Per-package frequency scaling (DVFS): discrete P-states and the domain
// that tracks a physical package's current operating point.
//
// The paper's thermal management halts the whole package (hlt throttling,
// Sections 6.2/6.4) and explicitly names frequency scaling as the competing
// mechanism for capping package power. A FrequencyDomain models that
// alternative: a table of discrete P-states, each a (frequency multiplier,
// relative voltage) pair. Dynamic power scales ~ f*V^2, so each P-state
// carries an energy scale V^2 (the per-event energy factor; the event *rate*
// already scales with f through execution speed). Which P-state the package
// runs at is
// a policy decision made by a FrequencyGovernor (src/freq); the domain only
// holds hardware facts and residency statistics.

#ifndef SRC_TOPO_FREQUENCY_DOMAIN_H_
#define SRC_TOPO_FREQUENCY_DOMAIN_H_

#include <cstddef>
#include <vector>

#include "src/base/time.h"

namespace eas {

// One discrete operating point. P0 is always full speed (1.0, 1.0); deeper
// states trade frequency (and voltage) for power.
struct PState {
  double frequency_multiplier = 1.0;  // execution speed relative to P0
  double voltage = 1.0;               // supply voltage relative to P0

  // Per-event energy factor: E_event ~ V^2 (the f factor arrives through
  // the event rate, which follows execution speed).
  double EnergyScale() const { return voltage * voltage; }
};

// An ordered P-state table, P0 (fastest) first. Shared by every package of
// a machine; per-package residency lives in the FrequencyDomain.
class PStateTable {
 public:
  PStateTable() : states_{PState{}} {}
  explicit PStateTable(std::vector<PState> states);

  // Five states patterned after a Pentium M-era ladder (the DVFS hardware
  // contemporary with the paper): 100/87/75/62/50 % frequency with voltage
  // easing from 1.0 to 0.8, i.e. dynamic power scales 1.0 down to 0.32.
  static PStateTable Default();

  std::size_t size() const { return states_.size(); }
  const PState& at(std::size_t i) const { return states_[i]; }
  std::size_t deepest() const { return states_.size() - 1; }

 private:
  std::vector<PState> states_;
};

// The frequency domain of one physical package: its current P-state plus
// residency statistics (ticks spent per P-state and the tick-weighted mean
// frequency multiplier, the quantities RunResult exports per CPU).
class FrequencyDomain {
 public:
  explicit FrequencyDomain(const PStateTable& table);

  const PStateTable& table() const { return table_; }
  std::size_t current() const { return current_; }
  const PState& state() const { return table_.at(current_); }

  double frequency_multiplier() const { return state().frequency_multiplier; }
  double energy_scale() const { return state().EnergyScale(); }

  // The governor's interface; an index past the deepest state clamps to it.
  void SetPState(std::size_t index);

  // Records one tick of residency at the current P-state.
  void AccountTick();

  Tick total_ticks() const { return total_ticks_; }

  // Fraction of accounted ticks spent in `pstate` (0 if never accounted).
  double ResidencyFraction(std::size_t pstate) const;

  // Tick-weighted average frequency multiplier (1.0 if never accounted:
  // a domain that was never governed ran at P0 by definition).
  double AverageFrequency() const;

 private:
  PStateTable table_;
  std::size_t current_ = 0;
  std::vector<Tick> residency_;
  Tick total_ticks_ = 0;
  double multiplier_ticks_ = 0.0;  // sum of frequency_multiplier per tick
};

}  // namespace eas

#endif  // SRC_TOPO_FREQUENCY_DOMAIN_H_
