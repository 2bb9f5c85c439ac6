#include "src/sim/experiment_runner.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

namespace eas {

ExperimentRunner::ExperimentRunner(std::size_t num_threads) : num_threads_(num_threads) {
  if (num_threads_ == 0) {
    const unsigned hardware = std::thread::hardware_concurrency();
    num_threads_ = hardware > 0 ? hardware : 1;
  }
}

std::vector<RunResult> ExperimentRunner::RunAll(const std::vector<ExperimentSpec>& specs) const {
  std::vector<RunResult> results(specs.size());
  if (specs.empty()) {
    return results;
  }

  // Work stealing over an atomic cursor; each worker writes its result into
  // its own spec's slot, so the aggregate keeps spec order without a lock. A
  // spec that throws (e.g. an unknown balancer_name) must not escape its
  // worker thread - that would terminate the process - so the
  // lowest-indexed failure is captured and rethrown after the join,
  // matching what the single-threaded path would have raised first.
  //
  // Scaling: the cursor lives on its own cache line so cursor traffic never
  // invalidates the line holding the failure state or the caller's capture,
  // and workers claim contiguous chunks of specs (about four claims per
  // worker over the sweep) instead of one spec per fetch_add, so cursor
  // contention does not grow with the spec count. Chunking only changes
  // which thread runs which spec - every spec still runs exactly once and
  // results stay keyed by index - so determinism across thread counts is
  // unchanged.
  const std::size_t workers = std::min(num_threads_, specs.size());
  const std::size_t chunk = std::max<std::size_t>(1, specs.size() / (workers * 4));

  struct alignas(64) PaddedCursor {
    std::atomic<std::size_t> next{0};
  };
  PaddedCursor cursor;
  std::mutex failure_mutex;
  std::size_t failed_index = specs.size();
  std::exception_ptr failure;
  auto worker = [&]() {
    while (true) {
      const std::size_t start = cursor.next.fetch_add(chunk);
      if (start >= specs.size()) {
        return;
      }
      const std::size_t stop = std::min(start + chunk, specs.size());
      for (std::size_t i = start; i < stop; ++i) {
        try {
          Experiment experiment(specs[i].config, specs[i].options);
          results[i] = experiment.Run(specs[i].workload);
        } catch (...) {
          std::lock_guard<std::mutex> lock(failure_mutex);
          if (i < failed_index) {
            failed_index = i;
            failure = std::current_exception();
          }
        }
      }
    }
  };

  if (workers <= 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) {
      threads.emplace_back(worker);
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
  }
  if (failure != nullptr) {
    std::rethrow_exception(failure);
  }
  return results;
}

std::vector<ExperimentSpec> ExperimentRunner::SeedSweep(const ExperimentSpec& base,
                                                        std::size_t n) {
  std::vector<ExperimentSpec> specs;
  specs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ExperimentSpec spec = base;
    spec.config.seed = base.config.seed + i;
    spec.name = base.name + "/seed" + std::to_string(spec.config.seed);
    specs.push_back(std::move(spec));
  }
  return specs;
}

}  // namespace eas
