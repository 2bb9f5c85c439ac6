// Workload generators beyond the paper's fixed spawn lists.
//
// Three families of stressors:
//  - Phase-shift: programs whose event mix flips between an ALU-bound hot
//    phase and a memory-bound cool phase mid-run, so a task's energy profile
//    drifts far more than any Table 2 program - exercises profile tracking
//    and re-balancing.
//  - Poisson: open-loop task arrivals with exponential inter-arrival times -
//    exercises initial placement and idle balancing under churn.
//  - Trace: CSV playback ("tick,program[,nice]" rows) - replays recorded or
//    hand-written arrival schedules.
//
// All generators are deterministic: randomness comes from an explicit seed
// through the repo's Rng, so the same call produces the same workload.

#ifndef SRC_WORKLOADS_GENERATORS_H_
#define SRC_WORKLOADS_GENERATORS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/workloads/programs.h"
#include "src/workloads/workload.h"

namespace eas {

// Builds 8 programs that alternate between a hot ALU phase (58 W) and a cool
// memory phase (38 W) of 30,000 ticks each. Odd tasks start cool so the
// machine-wide mix flips every phase. The generated programs are owned by
// the returned workload.
Workload PhaseShiftWorkload(const EnergyModel& model);

struct PoissonOptions {
  double arrivals_per_second = 2.0;  // open-loop arrival rate
  Tick horizon_ticks = 900'000;      // generate arrivals in [0, horizon)
  int initial_tasks = 4;             // tasks already running at tick 0
  std::uint64_t seed = 1;            // arrival-process seed
};

// Open-loop Poisson arrivals drawn from `mix` (round-robin over the mix so
// the long-run blend is exact; the arrival *times* carry the randomness).
// `mix` must be non-empty; the caller keeps the pointed-to programs alive
// (retain the library on the workload if it is locally owned).
Workload PoissonWorkload(const std::vector<const Program*>& mix, const PoissonOptions& options);

// Parses a trace in "tick,program[,nice]" CSV form (an optional leading
// header whose first field is literally "tick", '#' comments and blank
// lines skipped; fields trimmed, tick and nice read by ParseInt) against
// `library` names. Returns
// false and sets `error` on the first malformed line or unknown program;
// `out` is only written on success.
bool ParseTraceWorkload(const std::string& csv_text, const ProgramLibrary& library, Workload* out,
                        std::string* error);

// ParseTraceWorkload over a file's contents.
bool LoadTraceWorkload(const std::string& path, const ProgramLibrary& library, Workload* out,
                       std::string* error);

}  // namespace eas

#endif  // SRC_WORKLOADS_GENERATORS_H_
