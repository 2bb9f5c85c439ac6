// ExperimentService: the resident run-execution engine behind eastool serve.
//
// One process holds the warm state an offline eastool invocation rebuilds
// every time - resolved scenarios and the program library (ScenarioCache) -
// and executes submissions against a persistent worker pool, so a sweep
// driven by many small requests stops paying process startup + workload
// generation per run. The daemon front half (socket accept, wire framing)
// lives in experiment_server.h; this class is the transport-free core the
// in-process tests drive directly.
//
// Submission lifecycle:
//
//   Submit/SubmitBatch  parse + resolve synchronously (so every malformed
//                       request is rejected before anything queues, with
//                       the same RequestError offline parsing produces),
//                       expand into one job per run, and admit all jobs
//                       all-or-nothing into the bounded queue - a refusal
//                       is an explicit kQueueFull error, never a partial
//                       submission. A batch asking for more runs than the
//                       queue holds is refused before resolution expands
//                       it. SubmitBatch is atomic across requests.
//   workers             pop jobs, run them (Experiment::Run), and stream
//                       each completed run to the submission's RecordFn in
//                       completion order. The streamed payload is exactly
//                       the offline --jsonl line (JsonlRecordLine), which
//                       is what makes serve-mode output byte-comparable to
//                       `eastool --request` replay; records carry their
//                       index so clients can reorder.
//   DoneFn              fires once per submission after its last record.
//
// Determinism: each job is an independent seeded spec (the ExperimentRunner
// contract), so per-run results are bit-identical to offline execution for
// any worker count; only cross-submission completion interleaving varies.

#ifndef SRC_SERVICE_EXPERIMENT_SERVICE_H_
#define SRC_SERVICE_EXPERIMENT_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/api/run_request.h"
#include "src/service/wire.h"
#include "src/service/work_queue.h"
#include "src/sim/scenario_cache.h"

namespace eas {

struct ServiceOptions {
  // Job (= run) slots in the admission queue; a submission needing more
  // free slots than remain is rejected whole with kQueueFull.
  std::size_t queue_depth = 64;

  // Worker threads; 0 picks the hardware concurrency.
  std::size_t workers = 0;

  // Tests set false to exercise admission without execution (the queue
  // never drains, so queue-full behavior is deterministic).
  bool start_workers = true;
};

// One completed run as streamed to a submission's RecordFn.
struct StreamedRecord {
  std::uint64_t submission = 0;  // service-wide submission id
  std::size_t index = 0;         // record position within the submission
  std::string tag;               // the request's tag ("" = untagged)
  std::string jsonl;             // byte-exact offline --jsonl line
};

struct SubmitResult {
  std::uint64_t submission = 0;
  std::size_t records = 0;
};

class ExperimentService {
 public:
  // Called per completed run, from a worker thread; calls for one
  // submission may be concurrent with calls for another, so state shared
  // across submissions needs its own lock.
  using RecordFn = std::function<void(const StreamedRecord&)>;

  // Called once per submission after its last record. `error` is empty on
  // success, or the first run failure's diagnostic (runs are pre-validated
  // at resolve time, so this is exceptional).
  using DoneFn = std::function<void(std::uint64_t submission, std::size_t records,
                                    const std::string& error)>;

  explicit ExperimentService(ServiceOptions options = {});
  ~ExperimentService();

  ExperimentService(const ExperimentService&) = delete;
  ExperimentService& operator=(const ExperimentService&) = delete;

  // Submits one request (multi-line or single-line `key = value` text).
  Expected<SubmitResult> Submit(const std::string& request_text, RecordFn on_record,
                                DoneFn on_done = nullptr);

  // Submits a group of requests atomically: every request parses, resolves
  // and fits the queue, or none is admitted. The error of the first
  // offending request is returned (its `line` refers to that request's own
  // text).
  Expected<std::vector<SubmitResult>> SubmitBatch(const std::vector<std::string>& request_texts,
                                                  RecordFn on_record, DoneFn on_done = nullptr);

  ServiceStatusSnapshot Status() const;

  // Blocks until every admitted job has completed (meaningful only with
  // workers running).
  void Drain();

  // Stops admission, drains the already-admitted backlog, joins workers.
  // Idempotent; the destructor calls it.
  void Shutdown();

 private:
  // Shared fate of one submission: jobs hold a reference, the last
  // completed run fires on_done.
  struct Submission {
    std::uint64_t id = 0;
    RunRequest request;        // as resolved (carries the tag)
    std::vector<ExperimentSpec> specs;
    RecordFn on_record;
    DoneFn on_done;
    std::atomic<std::size_t> remaining{0};
    std::mutex error_mutex;
    std::string error;         // first failure's diagnostic
  };

  struct Job {
    std::shared_ptr<Submission> submission;
    std::size_t index = 0;
  };

  void WorkerLoop();
  void RunJob(const Job& job);
  void FinishJob();

  ServiceOptions options_;
  ScenarioCache cache_;
  BoundedWorkQueue<Job> queue_;
  std::vector<std::thread> workers_;

  std::atomic<bool> shutting_down_{false};
  bool shut_down_ = false;  // Shutdown() ran (guarded by drain_mutex_)

  // Guards (id assignment, queue push) as one step: ids must be written
  // into the submissions before their jobs become visible to workers, and
  // a rejected batch hands its ids back so clients never see an id that
  // went nowhere.
  std::mutex admission_mutex_;
  std::uint64_t next_submission_ = 1;  // guarded by admission_mutex_
  std::atomic<std::size_t> in_flight_{0};
  std::atomic<std::size_t> completed_runs_{0};
  std::atomic<std::size_t> completed_submissions_{0};
  std::atomic<std::size_t> rejected_submissions_{0};

  // Admitted jobs not yet completed; Drain waits for 0.
  mutable std::mutex drain_mutex_;
  std::condition_variable drained_;
  std::size_t outstanding_jobs_ = 0;

  // The status endpoint's uptime/throughput are observability about the
  // host process, not simulation state; they never feed a RunResult.
  // easlint: allow(determinism-wall-clock) -- service uptime metric, reporting only
  std::chrono::steady_clock::time_point start_time_ = std::chrono::steady_clock::now();
};

}  // namespace eas

#endif  // SRC_SERVICE_EXPERIMENT_SERVICE_H_
