// A small persistent worker pool for the package-parallel tick pipeline.
//
// The engine hands the pool one job per tick: "run this package-local phase
// chain for every package". Work is distributed dynamically (an atomic
// next-package counter), which is safe for bit-exact determinism because
// package phases write only their own SimulationState shard - *which* worker
// runs a package never affects *what* it computes, and every cross-package
// step the engine performs afterwards walks the per-package results in
// package order on the calling thread.
//
// The calling thread participates as worker 0, so a pool built with
// `workers <= 1` spawns no threads at all and Run degenerates to the plain
// sequential loop, calling the job inline.

#ifndef SRC_SIM_PACKAGE_WORKER_POOL_H_
#define SRC_SIM_PACKAGE_WORKER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace eas {

class PackageWorkerPool {
 public:
  // The per-item job: fn(item, worker). `worker` is in [0, num_workers());
  // the same worker index is never live on two threads at once, so it can
  // index per-worker scratch.
  using Job = std::function<void(std::size_t item, std::size_t worker)>;

  // Spawns `workers - 1` helper threads (the caller is worker 0). `workers`
  // is clamped to at least 1.
  explicit PackageWorkerPool(std::size_t workers);
  ~PackageWorkerPool();

  PackageWorkerPool(const PackageWorkerPool&) = delete;
  PackageWorkerPool& operator=(const PackageWorkerPool&) = delete;

  std::size_t num_workers() const { return num_workers_; }

  // Runs fn(item, worker) once for every item in [0, items), concurrently
  // across the workers, and returns when all calls have completed. fn must
  // be safe to call concurrently for distinct items. Not reentrant.
  template <typename Fn>
  void Run(std::size_t items, Fn&& fn) {
    if (threads_.empty() || items <= 1) {
      // Sequential degenerate case: same calls, same order, no hand-off and
      // no type erasure.
      for (std::size_t item = 0; item < items; ++item) {
        fn(item, 0);
      }
      return;
    }
    RunParallel(items, Job(std::ref(fn)));
  }

 private:
  void RunParallel(std::size_t items, const Job& fn);
  void WorkerLoop(std::size_t worker);
  // Claims items off next_item_ until the job is exhausted.
  void DrainItems(const Job& fn, std::size_t worker);

  std::size_t num_workers_;
  std::vector<std::thread> threads_;

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const Job* job_ = nullptr;       // guarded by mutex_ at hand-off
  std::size_t job_items_ = 0;      // guarded by mutex_ at hand-off
  std::uint64_t generation_ = 0;   // bumped per Run; wakes the helpers
  std::size_t busy_helpers_ = 0;   // helpers still draining this generation
  bool shutdown_ = false;

  std::atomic<std::size_t> next_item_{0};
};

}  // namespace eas

#endif  // SRC_SIM_PACKAGE_WORKER_POOL_H_
