// Table 2: programs used for the tests and their power consumption.
//
// Paper: bitcnts 61 W, memrw 38 W, aluadd 50 W, pushpop 47 W,
//        openssl 42-57 W, bzip2 48 W.
//
// Each program runs alone on one simulated CPU; power is measured two ways:
// by the true silicon model (the "multimeter") and by the calibrated
// counter-based estimator the scheduler actually uses.

#include <algorithm>
#include <cstdio>

#include "src/sim/machine.h"
#include "src/workloads/programs.h"

namespace {

struct Measurement {
  double mean_true = 0.0;
  double min_true = 1e9;
  double max_true = 0.0;
  double profile = 0.0;  // estimator-driven energy profile
};

Measurement MeasureAlone(const eas::Program& program) {
  eas::MachineConfig config;
  config.topology = eas::CpuTopology(1, 1, 1);
  config.cooling = eas::CoolingProfile::Uniform(1, eas::ThermalParams{});
  config.explicit_max_power_physical = 100.0;  // no throttling interference
  eas::Machine machine(config);
  eas::SimulationState& state = machine.state();
  eas::Task* task = state.Spawn(program);

  Measurement m;
  double sum = 0.0;
  int samples = 0;
  const eas::Tick ticks = 60'000;  // one minute covers all phases
  for (eas::Tick t = 0; t < ticks; ++t) {
    machine.Run(1);
    // Sample only while the task runs (interactive programs sleep).
    if (task->state() == eas::TaskState::kRunning) {
      const double p = state.TruePower(0);
      sum += p;
      ++samples;
      m.min_true = std::min(m.min_true, p);
      m.max_true = std::max(m.max_true, p);
    }
  }
  m.mean_true = samples > 0 ? sum / samples : 0.0;
  m.profile = task->profile().power();
  return m;
}

}  // namespace

int main() {
  std::printf("== Table 2: program power consumption ==\n\n");
  const eas::EnergyModel model = eas::EnergyModel::Default();
  const eas::ProgramLibrary library(model);

  struct PaperRow {
    const eas::Program* program;
    const char* paper_power;
    const char* description;
  };
  const PaperRow rows[] = {
      {&library.bitcnts(), "61W", "bit counting operations"},
      {&library.memrw(), "38W", "memory reads/writes"},
      {&library.aluadd(), "50W", "integer additions"},
      {&library.pushpop(), "47W", "stack push/pop"},
      {&library.openssl(), "42W-57W", "OpenSSL benchmark"},
      {&library.bzip2(), "48W", "file compression"},
  };

  std::printf("%-10s %10s %12s %14s %12s  %s\n", "program", "paper", "measured",
              "range [W]", "profile [W]", "description");
  for (const PaperRow& row : rows) {
    const Measurement m = MeasureAlone(*row.program);
    std::printf("%-10s %10s %10.1fW %6.1f-%6.1f %12.1f  %s\n", row.program->name().c_str(),
                row.paper_power, m.mean_true, m.min_true, m.max_true, m.profile,
                row.description);
  }
  std::printf("\n'measured' integrates the true power rail; 'profile' is the task energy\n"
              "profile the scheduler derives from event counters (estimation error <10%%).\n");
  return 0;
}
