// Table 1: change in power consumption during successive timeslices.
//
// Paper numbers (maximum / average relative change between successive
// timeslices, several hundred timeslices per program):
//   bash    19.0% / 2.05%      sshd    18.3% / 1.38%
//   bzip2   88.8% / 5.45%      openssl 63.2% / 2.48%
//   grep    84.3% / 1.06%
//
// We execute each program model standalone, account energy per 100 ms
// timeslice with the calibrated estimator, and report the same statistics.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "src/counters/calibration.h"
#include "src/counters/energy_estimator.h"
#include "src/task/task.h"
#include "src/workloads/programs.h"

namespace {

struct ChangeStats {
  double max_change = 0.0;
  double avg_change = 0.0;
  int timeslices = 0;
};

ChangeStats MeasureProgram(const eas::Program& program, const eas::EnergyModel& model,
                           const eas::EnergyEstimator& estimator, int target_timeslices) {
  eas::Task task(1, &program, /*seed=*/0xfeedULL + program.binary_id());
  std::vector<double> powers;

  double period_energy = 0.0;
  int period_ticks = 0;
  while (static_cast<int>(powers.size()) < target_timeslices) {
    const eas::EventVector events = task.ExecuteTick(1.0);
    period_energy += estimator.EstimateDynamicEnergy(events) +
                     estimator.static_power_per_logical() * eas::kTickSeconds;
    ++period_ticks;
    (void)model;

    const eas::Tick sleep = task.TakePendingSleep();
    const bool timeslice_full = period_ticks >= 100;
    if (timeslice_full || sleep > 0) {
      if (period_ticks >= 10) {  // discard tiny fragments, as the kernel's
                                 // variable-period average effectively does
        powers.push_back(period_energy / (period_ticks * eas::kTickSeconds));
      }
      period_energy = 0.0;
      period_ticks = 0;
    }
    // Sleeping consumes wall time but no CPU; skip it.
  }

  ChangeStats stats;
  double change_sum = 0.0;
  for (std::size_t i = 1; i < powers.size(); ++i) {
    const double change = std::fabs(powers[i] - powers[i - 1]) / powers[i - 1];
    stats.max_change = std::max(stats.max_change, change);
    change_sum += change;
  }
  stats.avg_change = change_sum / static_cast<double>(powers.size() - 1);
  stats.timeslices = static_cast<int>(powers.size());
  return stats;
}

}  // namespace

int main() {
  std::printf("== Table 1: change in power consumption during successive timeslices ==\n\n");

  const eas::EnergyModel model = eas::EnergyModel::Default();
  const eas::CalibrationResult calibration = eas::Calibrator::CalibrateDefault(model, 2026);
  const eas::EnergyEstimator estimator(calibration.weights, model.active_base_power());
  const eas::ProgramLibrary library(model);

  struct PaperRow {
    const char* name;
    double paper_max;
    double paper_avg;
  };
  const PaperRow paper_rows[] = {
      {"bash", 19.0, 2.05},  {"bzip2", 88.8, 5.45},   {"grep", 84.3, 1.06},
      {"sshd", 18.3, 1.38},  {"openssl", 63.2, 2.48},
  };

  std::printf("%-10s %18s %18s %12s\n", "program", "maximum (paper)", "average (paper)",
              "timeslices");
  for (const PaperRow& row : paper_rows) {
    const eas::Program* program = library.ByName(row.name);
    const ChangeStats stats = MeasureProgram(*program, model, estimator, 600);
    std::printf("%-10s %7.1f%% (%5.1f%%) %7.2f%% (%5.2f%%) %12d\n", row.name,
                stats.max_change * 100, row.paper_max, stats.avg_change * 100, row.paper_avg,
                stats.timeslices);
  }
  std::printf(
      "\nShape to reproduce: interactive programs (bash, sshd) have small maximum\n"
      "changes; batch programs with phases (bzip2, grep, openssl) show rare large\n"
      "jumps, yet ALL programs keep the average change small - which is why the\n"
      "last timeslice predicts the next one well (Section 3.3).\n");
  return 0;
}
