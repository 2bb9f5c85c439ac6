// Parallel experiment sweeps.
//
// A sweep is a list of ExperimentSpecs - (config, options, workload)
// combinations, e.g. every balancing policy x several seeds. The runner fans
// the specs across a thread pool; every spec builds its own Machine from its
// own seeded config, so runs share no mutable state and the aggregate is
// deterministic: results arrive indexed by spec, bit-identical for any
// thread count, including 1.

#ifndef SRC_SIM_EXPERIMENT_RUNNER_H_
#define SRC_SIM_EXPERIMENT_RUNNER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/sim/experiment.h"

namespace eas {

// One self-contained run of a sweep. `workload` converts implicitly from the
// legacy std::vector<const Program*> spawn lists and can carry timed
// arrivals plus ownership of generated programs (src/workloads/workload.h).
struct ExperimentSpec {
  std::string name;  // label for reports ("energy_aware/seed42")
  MachineConfig config;
  Experiment::Options options;
  Workload workload;
};

class ExperimentRunner {
 public:
  // `num_threads` = 0 picks the hardware concurrency.
  explicit ExperimentRunner(std::size_t num_threads = 0);

  std::size_t num_threads() const { return num_threads_; }

  // Runs every spec and returns the results in spec order. Each run is
  // independent and seeded by its own config, so the output is identical
  // for any thread count. If specs fail (e.g. an unknown balancer_name
  // throws from the Machine constructor), the remaining specs still run and
  // the lowest-indexed spec's exception is rethrown - again independent of
  // the thread count.
  std::vector<RunResult> RunAll(const std::vector<ExperimentSpec>& specs) const;

  // Expands `base` into one spec per (name, config) variant produced by
  // repeating it with the seeds [base.config.seed, base.config.seed + n).
  // The seeds must not wrap past 2^64 - 1; ResolveRunRequest rejects a
  // request whose sweep would.
  static std::vector<ExperimentSpec> SeedSweep(const ExperimentSpec& base, std::size_t n);

 private:
  std::size_t num_threads_;
};

}  // namespace eas

#endif  // SRC_SIM_EXPERIMENT_RUNNER_H_
