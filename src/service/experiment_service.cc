#include "src/service/experiment_service.h"

#include <exception>
#include <utility>

#include "src/api/result_sink.h"
#include "src/api/run_record.h"

namespace eas {
namespace {

RequestError ServiceError(RequestErrorCode code, std::string message) {
  RequestError error;
  error.code = code;
  error.message = std::move(message);
  return error;
}

}  // namespace

ExperimentService::ExperimentService(ServiceOptions options)
    : options_(options), queue_(options.queue_depth) {
  if (options_.workers == 0) {
    const unsigned hardware = std::thread::hardware_concurrency();
    options_.workers = hardware > 0 ? hardware : 1;
  }
  if (options_.start_workers) {
    workers_.reserve(options_.workers);
    for (std::size_t i = 0; i < options_.workers; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }
}

ExperimentService::~ExperimentService() { Shutdown(); }

Expected<SubmitResult> ExperimentService::Submit(const std::string& request_text,
                                                 RecordFn on_record, DoneFn on_done) {
  auto results = SubmitBatch({request_text}, std::move(on_record), std::move(on_done));
  if (!results.ok()) {
    return results.error();
  }
  return (*results)[0];
}

Expected<std::vector<SubmitResult>> ExperimentService::SubmitBatch(
    const std::vector<std::string>& request_texts, RecordFn on_record, DoneFn on_done) {
  if (shutting_down_.load()) {
    ++rejected_submissions_;
    return ServiceError(RequestErrorCode::kShuttingDown,
                        "service is shutting down; no new submissions");
  }
  // Validate everything before admitting anything: a batch with one bad
  // request is rejected whole, with that request's own diagnostic.
  std::vector<RunRequest> requests;
  std::uint64_t runs = 0;
  for (const std::string& text : request_texts) {
    auto parsed = ParseRunRequest(text);
    if (!parsed.ok()) {
      ++rejected_submissions_;
      return parsed.error();
    }
    // Resolving expands `runs` into one spec per run, so a batch that could
    // never fit is refused before that allocation (checked per request, so
    // the sum cannot overflow).
    if (parsed->runs > queue_.capacity() - runs) {
      ++rejected_submissions_;
      const std::string capacity = std::to_string(queue_.capacity());
      return ServiceError(RequestErrorCode::kQueueFull, "queue full: need more than " + capacity +
                                                            " slots, capacity " + capacity);
    }
    runs += parsed->runs;
    requests.push_back(std::move(*parsed));
  }

  std::vector<std::shared_ptr<Submission>> submissions;
  std::vector<Job> jobs;
  for (const RunRequest& request : requests) {
    auto resolved = ResolveRunRequest(request, &cache_);
    if (!resolved.ok()) {
      ++rejected_submissions_;
      return resolved.error();
    }
    auto submission = std::make_shared<Submission>();
    submission->request = resolved->request;
    submission->specs = std::move(resolved->specs);
    submission->on_record = on_record;
    submission->on_done = on_done;
    submission->remaining.store(submission->specs.size());
    for (std::size_t i = 0; i < submission->specs.size(); ++i) {
      jobs.push_back(Job{submission, i});
    }
    submissions.push_back(std::move(submission));
  }

  {
    // Reserve the outstanding count before the push: a worker may finish a
    // job before TryPushBatch even returns.
    std::lock_guard<std::mutex> lock(drain_mutex_);
    outstanding_jobs_ += jobs.size();
  }
  const std::size_t job_count = jobs.size();
  std::vector<SubmitResult> results;
  results.reserve(submissions.size());
  {
    // Ids are written into the submissions *before* the push makes their
    // jobs visible - a worker can pop a job and stream its first record
    // before TryPushBatch even returns. The admission mutex makes (assign,
    // push) atomic, so a rejected batch hands its ids back untouched.
    std::lock_guard<std::mutex> admission(admission_mutex_);
    const std::uint64_t first_id = next_submission_;
    for (const auto& submission : submissions) {
      submission->id = next_submission_++;
      results.push_back(SubmitResult{submission->id, submission->specs.size()});
    }
    if (!queue_.TryPushBatch(std::move(jobs))) {
      next_submission_ = first_id;
      {
        std::lock_guard<std::mutex> lock(drain_mutex_);
        outstanding_jobs_ -= job_count;
      }
      ++rejected_submissions_;
      return ServiceError(RequestErrorCode::kQueueFull,
                          "queue full: need " + std::to_string(job_count) + " slots, capacity " +
                              std::to_string(queue_.capacity()));
    }
  }
  return results;
}

void ExperimentService::WorkerLoop() {
  while (true) {
    std::optional<Job> job = queue_.Pop();
    if (!job.has_value()) {
      return;  // shutdown and the backlog is drained
    }
    ++in_flight_;
    RunJob(*job);
    --in_flight_;
    FinishJob();
  }
}

void ExperimentService::RunJob(const Job& job) {
  Submission& submission = *job.submission;
  const ExperimentSpec& spec = submission.specs[job.index];
  try {
    Experiment experiment(spec.config, spec.options);
    RunResult result = experiment.Run(spec.workload);

    RunRecord record;
    record.request = submission.request;
    record.spec = spec;
    record.index = job.index;
    record.result = std::move(result);

    StreamedRecord streamed;
    streamed.submission = submission.id;
    streamed.index = job.index;
    streamed.tag = submission.request.tag;
    streamed.jsonl = JsonlRecordLine(record);
    ++completed_runs_;
    if (submission.on_record) {
      submission.on_record(streamed);
    }
  } catch (const std::exception& e) {
    // Resolution pre-validates requests, so a throw here (e.g. bad_alloc)
    // is exceptional; keep the first diagnostic for on_done.
    std::lock_guard<std::mutex> lock(submission.error_mutex);
    if (submission.error.empty()) {
      submission.error = e.what();
    }
  } catch (...) {
    std::lock_guard<std::mutex> lock(submission.error_mutex);
    if (submission.error.empty()) {
      submission.error = "unknown run failure";
    }
  }
  if (submission.remaining.fetch_sub(1) == 1) {
    ++completed_submissions_;
    if (submission.on_done) {
      std::string error;
      {
        std::lock_guard<std::mutex> lock(submission.error_mutex);
        error = submission.error;
      }
      submission.on_done(submission.id, submission.specs.size(), error);
    }
  }
}

void ExperimentService::FinishJob() {
  std::lock_guard<std::mutex> lock(drain_mutex_);
  --outstanding_jobs_;
  if (outstanding_jobs_ == 0) {
    drained_.notify_all();
  }
}

ServiceStatusSnapshot ExperimentService::Status() const {
  ServiceStatusSnapshot status;
  status.queue_capacity = queue_.capacity();
  status.queued = queue_.size();
  status.in_flight = in_flight_.load();
  status.completed_runs = completed_runs_.load();
  status.completed_submissions = completed_submissions_.load();
  status.rejected_submissions = rejected_submissions_.load();
  status.workers = options_.start_workers ? options_.workers : 0;
  // easlint: allow(determinism-wall-clock) -- status reporting, never feeds results
  const auto now = std::chrono::steady_clock::now();
  status.uptime_s =
      std::chrono::duration_cast<std::chrono::duration<double>>(now - start_time_).count();
  status.runs_per_s =
      status.uptime_s > 0.0 ? static_cast<double>(status.completed_runs) / status.uptime_s : 0.0;
  const ScenarioCache::Stats cache_stats = cache_.stats();
  status.scenario_cache_hits = cache_stats.scenario_hits + cache_stats.library_hits;
  status.scenario_cache_misses = cache_stats.scenario_misses + cache_stats.library_misses;
  status.cache_scenario_hits = cache_stats.scenario_hits;
  status.cache_scenario_misses = cache_stats.scenario_misses;
  status.cache_library_hits = cache_stats.library_hits;
  status.cache_library_misses = cache_stats.library_misses;
  return status;
}

void ExperimentService::Drain() {
  std::unique_lock<std::mutex> lock(drain_mutex_);
  drained_.wait(lock, [this] { return outstanding_jobs_ == 0; });
}

void ExperimentService::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(drain_mutex_);
    if (shut_down_) {
      return;
    }
    shut_down_ = true;
  }
  shutting_down_.store(true);
  queue_.Shutdown();
  for (std::thread& worker : workers_) {
    worker.join();
  }
  workers_.clear();
}

}  // namespace eas
