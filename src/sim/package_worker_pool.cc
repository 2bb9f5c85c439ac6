#include "src/sim/package_worker_pool.h"

namespace eas {

PackageWorkerPool::PackageWorkerPool(std::size_t workers)
    : num_workers_(workers < 1 ? 1 : workers) {
  threads_.reserve(num_workers_ - 1);
  for (std::size_t w = 1; w < num_workers_; ++w) {
    threads_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

PackageWorkerPool::~PackageWorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& thread : threads_) {
    thread.join();
  }
}

void PackageWorkerPool::DrainItems(const Job& fn, std::size_t worker) {
  const std::size_t items = job_items_;
  while (true) {
    const std::size_t item = next_item_.fetch_add(1, std::memory_order_relaxed);
    if (item >= items) {
      break;
    }
    fn(item, worker);
  }
}

void PackageWorkerPool::RunParallel(std::size_t items, const Job& fn) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = &fn;
    job_items_ = items;
    next_item_.store(0, std::memory_order_relaxed);
    busy_helpers_ = threads_.size();
    ++generation_;
  }
  start_cv_.notify_all();

  DrainItems(fn, /*worker=*/0);

  // All items are claimed once the caller's drain exhausts the counter, but
  // a helper may still be inside its last fn call; completion is helpers
  // reporting idle, not the counter running out.
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [this] { return busy_helpers_ == 0; });
  job_ = nullptr;
}

void PackageWorkerPool::WorkerLoop(std::size_t worker) {
  std::uint64_t seen_generation = 0;
  while (true) {
    const Job* fn = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock,
                     [&] { return shutdown_ || generation_ != seen_generation; });
      if (shutdown_) {
        return;
      }
      seen_generation = generation_;
      fn = job_;
    }
    DrainItems(*fn, worker);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --busy_helpers_;
      if (busy_helpers_ == 0) {
        done_cv_.notify_one();
      }
    }
  }
}

}  // namespace eas
