// The benchmark's workloads. README.md in this directory says why each
// exists and which layer metric should move which end-to-end metric.
//
//   paper-dense   scenario = paper-mixed (18 tasks, 8 CPUs, 60 W cap)
//   cluster-1024  datacenter-consolidation on a 1024-CPU topology
//   sparse-idle   4 cron-style tasks on the paper machine (skip-ahead)
//   serve-mix     closed-loop clients against an in-process ExperimentServer

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/report.h"

namespace perfbench {

// Engine workloads, in the order the benchmark lists them.
const std::vector<std::string>& EngineWorkloadNames();

// The request text an engine workload runs for `seed`. `scale` shortens the
// simulated duration (1 = as defined).
std::string EngineRequestText(const std::string& workload, std::uint64_t seed, double scale);

// The serve-mix request cycle for `seed`.
std::vector<std::string> ServeMixRequests(std::uint64_t seed, double scale);

// Run one workload and fill `report`: the end-to-end metrics when
// !args.trace, the per-layer ones otherwise. Output checks that fail call
// report.Mismatch.
void RunEngineWorkload(const Args& args, Report& report);
void RunServeMix(const Args& args, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
