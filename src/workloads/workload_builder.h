// Workload builders: the spawn lists of the paper's experiments.

#ifndef SRC_WORKLOADS_WORKLOAD_BUILDER_H_
#define SRC_WORKLOADS_WORKLOAD_BUILDER_H_

#include <vector>

#include "src/task/program.h"
#include "src/workloads/programs.h"

namespace eas {

// Section 6.1: each Table 2 program `instances` times (3 -> 18 tasks SMT off,
// 6 -> 36 tasks SMT on). Instances interleave so CPUs get mixed queues even
// with naive placement.
std::vector<const Program*> MixedWorkload(const ProgramLibrary& library, int instances);

// Section 6.3 / Figure 8: `n_memrw` memrw + `n_pushpop` pushpop + `n_bitcnts`
// bitcnts instances.
std::vector<const Program*> HomogeneityWorkload(const ProgramLibrary& library, int n_memrw,
                                                int n_pushpop, int n_bitcnts);

// Section 6.4 / Figures 9, 10: `n` bitcnts instances.
std::vector<const Program*> HotTaskWorkload(const ProgramLibrary& library, int n);

// Parses a workload specification string (the `eastool --workload` syntax):
//   "mixed:<instances>"            - MixedWorkload
//   "homog:<memrw>,<pushpop>,<bitcnts>" - HomogeneityWorkload
//   "hot:<n>"                      - HotTaskWorkload
//   "short:<n>"                    - alternating short_hot/short_cool tasks
//   "list:<name>[*<count>],..."    - explicit spawn list by program name
//                                    (e.g. "list:bitcnts*8,memrw*12,sshd*4")
// Every count is decimal digits (ParseUint); an empty mixed/hot/short count
// takes its default (3, 1, 16). A spec spawns at most 1,000,000 tasks.
// Returns an empty vector for malformed specifications.
std::vector<const Program*> ParseWorkloadSpec(const std::string& spec,
                                              const ProgramLibrary& library);

}  // namespace eas

#endif  // SRC_WORKLOADS_WORKLOAD_BUILDER_H_
