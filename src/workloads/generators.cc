#include "src/workloads/generators.h"

#include <cmath>
#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <utility>

#include "src/base/rng.h"
#include "src/base/text.h"
#include "src/task/task.h"

namespace eas {
namespace {

// Binary-id block for generated programs (the paper programs use 1001-1011).
constexpr BinaryId kBinPhaseShiftBase = 2001;

// Local copies of the ALU/memory signatures (see src/workloads/programs.cc);
// what matters is only that the two phases sit at opposite ends of the
// power-per-event spectrum.
EventRates HotSignature() {
  EventRates s{};
  s[EventIndex(EventType::kUopsRetired)] = 1.0;
  s[EventIndex(EventType::kIntAluOps)] = 1.0;
  s[EventIndex(EventType::kStackOps)] = 0.05;
  s[EventIndex(EventType::kMemTransactions)] = 0.02;
  s[EventIndex(EventType::kL2CacheMisses)] = 0.002;
  return s;
}

EventRates CoolSignature() {
  EventRates s{};
  s[EventIndex(EventType::kUopsRetired)] = 0.25;
  s[EventIndex(EventType::kIntAluOps)] = 0.05;
  s[EventIndex(EventType::kMemTransactions)] = 1.0;
  s[EventIndex(EventType::kL2CacheMisses)] = 0.18;
  s[EventIndex(EventType::kStackOps)] = 0.02;
  return s;
}

Phase ShiftPhase(const EnergyModel& model, const EventRates& signature, double power_watts,
                 Tick duration) {
  Phase phase;
  phase.rates = model.RatesForTargetPower(signature, power_watts);
  phase.mean_duration = duration;
  phase.duration_jitter = 0.05;
  phase.rate_noise = 0.02;
  return phase;
}

}  // namespace

Workload PhaseShiftWorkload(const EnergyModel& model) {
  constexpr int kTasks = 8;
  constexpr Tick kPhaseTicks = 30'000;     // duration of each (hot|cool) phase
  constexpr double kHotPowerWatts = 58.0;  // ALU-bound phase target power
  constexpr double kCoolPowerWatts = 38.0; // memory-bound phase target power
  Workload workload;
  for (int i = 0; i < kTasks; ++i) {
    const bool start_cool = i % 2 == 1;  // odd tasks flip the machine-wide mix
    const Phase hot = ShiftPhase(model, HotSignature(), kHotPowerWatts, kPhaseTicks);
    const Phase cool = ShiftPhase(model, CoolSignature(), kCoolPowerWatts, kPhaseTicks);
    std::vector<Phase> phases = start_cool ? std::vector<Phase>{cool, hot}
                                           : std::vector<Phase>{hot, cool};
    const Program* program = workload.Own(std::make_unique<Program>(
        start_cool ? "phase_shift_cool" : "phase_shift_hot",
        kBinPhaseShiftBase + (start_cool ? 1 : 0), std::move(phases),
        /*total_work_ticks=*/0));
    workload.Add(*program);
  }
  return workload;
}

Workload PoissonWorkload(const std::vector<const Program*>& mix, const PoissonOptions& options) {
  Workload workload;
  if (mix.empty()) {
    return workload;
  }
  std::size_t next_program = 0;
  for (int i = 0; i < options.initial_tasks; ++i) {
    workload.Add(*mix[next_program++ % mix.size()]);
  }
  if (options.arrivals_per_second <= 0.0) {
    return workload;
  }
  Rng rng(options.seed);
  double t_seconds = 0.0;
  const double horizon_seconds = TicksToSeconds(options.horizon_ticks);
  while (true) {
    // Exponential inter-arrival time; 1 - NextDouble() is in (0, 1].
    t_seconds += -std::log(1.0 - rng.NextDouble()) / options.arrivals_per_second;
    if (t_seconds >= horizon_seconds) {
      break;
    }
    workload.Add(*mix[next_program++ % mix.size()], SecondsToTicks(t_seconds));
  }
  return workload;
}

bool ParseTraceWorkload(const std::string& csv_text, const ProgramLibrary& library, Workload* out,
                        std::string* error) {
  Workload workload;
  int line_number = 0;
  bool seen_content = false;
  for (const std::string& line : SplitFields(csv_text, '\n')) {
    ++line_number;
    const std::string content = Trim(line);
    if (content.empty() || content[0] == '#') {
      continue;
    }
    std::vector<std::string> fields = SplitFields(line, ',');
    for (std::string& field : fields) {
      field = Trim(field);
    }
    std::int64_t tick = 0;
    // Only the literal "tick,..." header is skippable - any other
    // non-numeric first field must error, or a typoed first data row in a
    // headerless trace would be silently dropped.
    if (!seen_content && fields[0] == "tick") {
      seen_content = true;
      continue;
    }
    seen_content = true;
    if (fields.size() < 2 || fields.size() > 3) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_number) + ": want tick,program[,nice]";
      }
      return false;
    }
    if (!ParseInt(fields[0], &tick) || tick < 0) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_number) + ": bad tick \"" + fields[0] + "\"";
      }
      return false;
    }
    const Program* program = library.ByName(fields[1]);
    if (program == nullptr) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_number) + ": unknown program \"" + fields[1] + "\"";
      }
      return false;
    }
    std::int64_t nice = 0;
    if (fields.size() == 3 && (!ParseInt(fields[2], &nice) || nice < Task::kMinNice ||
                               nice > Task::kMaxNice)) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_number) + ": bad nice \"" + fields[2] + "\"";
      }
      return false;
    }
    workload.Add(*program, static_cast<Tick>(tick), static_cast<int>(nice));
  }
  *out = std::move(workload);
  return true;
}

bool LoadTraceWorkload(const std::string& path, const ProgramLibrary& library, Workload* out,
                       std::string* error) {
  std::ifstream stream(path, std::ios::binary);
  if (!stream) {
    if (error != nullptr) {
      *error = "cannot open " + path;
    }
    return false;
  }
  std::ostringstream contents;
  contents << stream.rdbuf();
  return ParseTraceWorkload(contents.str(), library, out, error);
}

}  // namespace eas
