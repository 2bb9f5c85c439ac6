// ExperimentService: the transport-free core of eastool serve. The load-
// bearing property is byte-identity - every record a warm service streams
// must be exactly the line an offline `eastool --request` replay of the
// same request would have written - plus the admission contract: bounded
// queue, all-or-nothing batches, explicit queue-full rejection, and a
// shutdown that drains what it admitted.

#include "src/service/experiment_service.h"

#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/api/result_sink.h"
#include "src/api/run_session.h"
#include "tests/service/status_field.h"

namespace eas {
namespace {

// What the offline path would have produced: resolve the same text, run it
// on a RunSession, render each record through the same JsonlRecordLine.
std::vector<std::string> OfflineLines(const std::string& text) {
  const auto request = ParseRunRequest(text);
  EXPECT_TRUE(request.ok()) << (request.ok() ? "" : request.error().Render());
  const auto resolved = ResolveRunRequest(*request);
  EXPECT_TRUE(resolved.ok()) << (resolved.ok() ? "" : resolved.error().Render());
  const RunSession session(1);
  std::vector<std::string> lines;
  for (const RunRecord& record : session.Run(*resolved)) {
    lines.push_back(JsonlRecordLine(record));
  }
  return lines;
}

// Collects streamed records, reordered per submission by record index -
// the same reconstruction eastool submit --jsonl performs.
struct Collector {
  std::mutex mutex;
  std::map<std::uint64_t, std::map<std::size_t, StreamedRecord>> by_submission;

  ExperimentService::RecordFn fn() {
    return [this](const StreamedRecord& record) {
      std::lock_guard<std::mutex> lock(mutex);
      by_submission[record.submission][record.index] = record;
    };
  }

  std::vector<std::string> Lines(std::uint64_t submission) {
    std::lock_guard<std::mutex> lock(mutex);
    std::vector<std::string> lines;
    for (const auto& [index, record] : by_submission[submission]) {
      lines.push_back(record.jsonl);
    }
    return lines;
  }
};

constexpr const char kQuickRequest[] =
    "name = svc; topology = 1:2:1; workload = hot:2; duration-s = 2; seed = 5; runs = 3";

TEST(ExperimentServiceTest, StreamsBytesIdenticalToOfflineReplay) {
  ExperimentService service({/*queue_depth=*/8, /*workers=*/2, /*start_workers=*/true});
  Collector collector;
  const auto submitted = service.Submit(kQuickRequest, collector.fn());
  ASSERT_TRUE(submitted.ok()) << submitted.error().Render();
  EXPECT_EQ(submitted->records, 3u);
  service.Drain();

  const std::vector<std::string> warm = collector.Lines(submitted->submission);
  ASSERT_EQ(warm.size(), 3u);
  EXPECT_EQ(warm, OfflineLines(kQuickRequest));
}

TEST(ExperimentServiceTest, ScenarioCacheDoesNotChangeTheBytes) {
  // The whole point of the warm service: the second scenario submission is
  // served from the cache - and the bytes cannot tell.
  const std::string text = "scenario = paper-hot-task; duration-s = 2; seed = 3";
  ExperimentService service({/*queue_depth=*/8, /*workers=*/2, /*start_workers=*/true});
  Collector collector;
  const auto first = service.Submit(text, collector.fn());
  const auto second = service.Submit(text, collector.fn());
  ASSERT_TRUE(first.ok() && second.ok());
  service.Drain();

  const std::vector<std::string> offline = OfflineLines(text);
  EXPECT_EQ(collector.Lines(first->submission), offline);
  EXPECT_EQ(collector.Lines(second->submission), offline);
  const ServiceStatusSnapshot status = service.Status();
  EXPECT_GT(status.scenario_cache_hits, 0u);
  EXPECT_GT(status.scenario_cache_misses, 0u);
}

TEST(ExperimentServiceTest, StatusSplitsTheCacheCountersPerQueue) {
  // The combined hit/miss counters stay (the smoke test pins them), but the
  // status must also expose the per-queue split: scenario-spec builds and
  // program-library builds cache on independent keys.
  const std::string scenario_text = "scenario = paper-hot-task; duration-s = 2; seed = 3";
  const std::string cli_text = "topology = 1:2:1; workload = hot:2; duration-s = 2";
  ExperimentService service({/*queue_depth=*/8, /*workers=*/2, /*start_workers=*/true});
  Collector collector;
  ASSERT_TRUE(service.Submit(scenario_text, collector.fn()).ok());
  ASSERT_TRUE(service.Submit(scenario_text, collector.fn()).ok());  // scenario-cache hit
  ASSERT_TRUE(service.Submit(cli_text, collector.fn()).ok());
  ASSERT_TRUE(service.Submit(cli_text, collector.fn()).ok());       // library-cache hit
  service.Drain();

  const ServiceStatusSnapshot status = service.Status();
  EXPECT_GT(status.cache_scenario_hits, 0u);
  EXPECT_GT(status.cache_scenario_misses, 0u);
  EXPECT_GT(status.cache_library_hits, 0u);
  EXPECT_GT(status.cache_library_misses, 0u);
  EXPECT_EQ(status.scenario_cache_hits,
            status.cache_scenario_hits + status.cache_library_hits);
  EXPECT_EQ(status.scenario_cache_misses,
            status.cache_scenario_misses + status.cache_library_misses);

  // The split fields travel over the wire.
  const std::string json = ServiceStatusToJson(status);
  EXPECT_EQ(StatusField(json, "cache_scenario_hits", -1),
            static_cast<double>(status.cache_scenario_hits));
  EXPECT_EQ(StatusField(json, "cache_scenario_misses", -1),
            static_cast<double>(status.cache_scenario_misses));
  EXPECT_EQ(StatusField(json, "cache_library_hits", -1),
            static_cast<double>(status.cache_library_hits));
  EXPECT_EQ(StatusField(json, "cache_library_misses", -1),
            static_cast<double>(status.cache_library_misses));
}

TEST(ExperimentServiceTest, ConcurrentClientsEachGetTheirOwnBytes) {
  // N client threads x M submissions each, distinct seeds, one shared
  // service. Every submission must come back byte-identical to its own
  // offline replay no matter how completions interleave.
  constexpr int kClients = 3;
  constexpr int kPerClient = 2;
  ExperimentService service({/*queue_depth=*/64, /*workers=*/4, /*start_workers=*/true});
  Collector collector;

  std::mutex texts_mutex;
  std::map<std::uint64_t, std::string> text_of;  // submission id -> request text
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int m = 0; m < kPerClient; ++m) {
        const std::string text = "topology = 1:2:1; workload = hot:2; duration-s = 2; seed = " +
                                 std::to_string(100 + c * 10 + m) + "; runs = 2";
        const auto submitted = service.Submit(text, collector.fn());
        ASSERT_TRUE(submitted.ok()) << submitted.error().Render();
        std::lock_guard<std::mutex> lock(texts_mutex);
        text_of[submitted->submission] = text;
      }
    });
  }
  for (std::thread& client : clients) {
    client.join();
  }
  service.Drain();

  ASSERT_EQ(text_of.size(), static_cast<std::size_t>(kClients * kPerClient));
  for (const auto& [submission, text] : text_of) {
    EXPECT_EQ(collector.Lines(submission), OfflineLines(text)) << text;
  }
  const ServiceStatusSnapshot status = service.Status();
  EXPECT_EQ(status.completed_submissions, static_cast<std::size_t>(kClients * kPerClient));
  EXPECT_EQ(status.completed_runs, static_cast<std::size_t>(kClients * kPerClient * 2));
}

TEST(ExperimentServiceTest, TagTravelsFromRequestToRecord) {
  const std::string tagged = "tag = lane-7; topology = 1:2:1; workload = hot:2; duration-s = 2";
  ExperimentService service({/*queue_depth=*/8, /*workers=*/1, /*start_workers=*/true});

  std::mutex mutex;
  std::vector<StreamedRecord> records;
  const auto submitted = service.Submit(tagged, [&](const StreamedRecord& record) {
    std::lock_guard<std::mutex> lock(mutex);
    records.push_back(record);
  });
  ASSERT_TRUE(submitted.ok()) << submitted.error().Render();
  service.Drain();

  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].tag, "lane-7");
  EXPECT_NE(records[0].jsonl.find("\"tag\": \"lane-7\""), std::string::npos) << records[0].jsonl;
  // ...and the streamed line still matches the offline replay of the same
  // tagged request, i.e. the tag flows through both paths identically.
  EXPECT_EQ(std::vector<std::string>{records[0].jsonl}, OfflineLines(tagged));
}

TEST(ExperimentServiceTest, QueueFullRejectsWholeSubmissions) {
  // No workers: the queue never drains, so admission arithmetic is exact.
  ExperimentService service({/*queue_depth=*/1, /*workers=*/1, /*start_workers=*/false});
  Collector collector;

  // Needs 2 slots, capacity 1: rejected before anything queues.
  const auto too_big = service.Submit("duration-s = 1; runs = 2", collector.fn());
  ASSERT_FALSE(too_big.ok());
  EXPECT_EQ(too_big.error().code, RequestErrorCode::kQueueFull);
  EXPECT_NE(too_big.error().message.find("queue full"), std::string::npos);
  EXPECT_EQ(service.Status().queued, 0u);

  const auto fits = service.Submit("duration-s = 1", collector.fn());
  ASSERT_TRUE(fits.ok()) << fits.error().Render();
  EXPECT_EQ(service.Status().queued, 1u);

  const auto rejected = service.Submit("duration-s = 1", collector.fn());
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error().code, RequestErrorCode::kQueueFull);

  // A batch that does not fit whole is rejected whole - including its
  // requests that would have fit alone.
  const auto batch = service.SubmitBatch({"duration-s = 1", "duration-s = 1"}, collector.fn());
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.error().code, RequestErrorCode::kQueueFull);

  const ServiceStatusSnapshot status = service.Status();
  EXPECT_EQ(status.queued, 1u);
  EXPECT_EQ(status.rejected_submissions, 3u);
  EXPECT_EQ(status.workers, 0u);
}

TEST(ExperimentServiceTest, OversizedRunsRejectBeforeResolving) {
  // A run count no queue could hold is refused before resolution expands it
  // into one spec per run (which would exhaust memory), and the daemon keeps
  // serving.
  ExperimentService service({/*queue_depth=*/8, /*workers=*/1, /*start_workers=*/true});
  Collector collector;
  const auto huge = service.Submit("workload = hot:1; runs = 1000000000000", collector.fn());
  ASSERT_FALSE(huge.ok());
  EXPECT_EQ(huge.error().code, RequestErrorCode::kQueueFull);

  // Summed across a batch: each request fits alone, together they do not.
  const auto batch = service.SubmitBatch({"runs = 5", "runs = 4"}, collector.fn());
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.error().code, RequestErrorCode::kQueueFull);

  const auto normal = service.Submit(kQuickRequest, collector.fn());
  ASSERT_TRUE(normal.ok()) << normal.error().Render();
  service.Drain();
  EXPECT_EQ(collector.Lines(normal->submission), OfflineLines(kQuickRequest));

  const ServiceStatusSnapshot status = service.Status();
  EXPECT_EQ(status.rejected_submissions, 2u);
  EXPECT_EQ(status.completed_submissions, 1u);
}

TEST(ExperimentServiceTest, FaultPlansPastTheirLimitsRejectAndServingContinues) {
  // A churn count that would expand past the plan's event limit, and a spike
  // window past the tick range, are structured `faults` errors at resolve
  // time - not an allocation failure or a wrapped tick inside the daemon.
  ExperimentService service({/*queue_depth=*/8, /*workers=*/1, /*start_workers=*/true});
  Collector collector;
  for (const char* faults : {"churn:100000000000@1000:1", "spike:0@5:10:9223372036854775807"}) {
    const auto rejected = service.Submit(
        std::string("workload = hot:1; duration-s = 1; faults = ") + faults, collector.fn());
    ASSERT_FALSE(rejected.ok()) << faults;
    EXPECT_EQ(rejected.error().code, RequestErrorCode::kBadValue) << faults;
    EXPECT_EQ(rejected.error().key, "faults") << faults;
    EXPECT_NE(rejected.error().message.find(faults), std::string::npos)
        << rejected.error().Render();
  }

  const auto normal = service.Submit(kQuickRequest, collector.fn());
  ASSERT_TRUE(normal.ok()) << normal.error().Render();
  service.Drain();
  EXPECT_EQ(collector.Lines(normal->submission), OfflineLines(kQuickRequest));
  EXPECT_EQ(service.Status().rejected_submissions, 2u);
}

TEST(ExperimentServiceTest, MisreadValuesRejectAndServingContinues) {
  // Values the parsers once read loosely are structured errors now: a count
  // with trailing junk, a signed fault cpu, an intra-run thread count past
  // the cap.
  ExperimentService service({/*queue_depth=*/8, /*workers=*/1, /*start_workers=*/true});
  Collector collector;
  const std::pair<const char*, const char*> cases[] = {
      {"workload = mixed:3x; duration-s = 1", "workload"},
      {"workload = hot:1; duration-s = 1; faults = off:+1@5", "faults"},
      {"workload = hot:1; duration-s = 1; intra-threads = 1025", "intra-threads"},
  };
  for (const auto& [text, key] : cases) {
    const auto rejected = service.Submit(text, collector.fn());
    ASSERT_FALSE(rejected.ok()) << text;
    EXPECT_EQ(rejected.error().code, RequestErrorCode::kBadValue) << text;
    EXPECT_EQ(rejected.error().key, key) << text;
  }

  const auto normal = service.Submit(kQuickRequest, collector.fn());
  ASSERT_TRUE(normal.ok()) << normal.error().Render();
  service.Drain();
  EXPECT_EQ(collector.Lines(normal->submission), OfflineLines(kQuickRequest));
  EXPECT_EQ(service.Status().rejected_submissions, 3u);
}

TEST(ExperimentServiceTest, MalformedRequestsRejectBeforeAdmission) {
  ExperimentService service({/*queue_depth=*/8, /*workers=*/1, /*start_workers=*/false});
  Collector collector;

  const auto unknown = service.Submit("polcy = energy_aware", collector.fn());
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.error().code, RequestErrorCode::kUnknownKey);
  EXPECT_EQ(unknown.error().key, "polcy");

  const auto unresolvable = service.Submit("scenario = no-such-scenario", collector.fn());
  ASSERT_FALSE(unresolvable.ok());
  EXPECT_EQ(unresolvable.error().code, RequestErrorCode::kUnknownName);

  // One bad request poisons its whole batch; the good one is not admitted.
  const auto batch =
      service.SubmitBatch({"duration-s = 1", "seed = nope"}, collector.fn());
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.error().code, RequestErrorCode::kBadValue);
  EXPECT_EQ(batch.error().key, "seed");

  const ServiceStatusSnapshot status = service.Status();
  EXPECT_EQ(status.queued, 0u);
  EXPECT_EQ(status.rejected_submissions, 3u);
  EXPECT_TRUE(collector.by_submission.empty());
}

TEST(ExperimentServiceTest, StatusCountsAndUptimeAreSane) {
  ExperimentService service({/*queue_depth=*/16, /*workers=*/2, /*start_workers=*/true});
  Collector collector;
  const auto submitted =
      service.Submit("topology = 1:2:1; workload = hot:2; duration-s = 2; runs = 2",
                     collector.fn());
  ASSERT_TRUE(submitted.ok()) << submitted.error().Render();
  service.Drain();

  const ServiceStatusSnapshot status = service.Status();
  EXPECT_EQ(status.queue_capacity, 16u);
  EXPECT_EQ(status.queued, 0u);
  EXPECT_EQ(status.in_flight, 0u);
  EXPECT_EQ(status.completed_runs, 2u);
  EXPECT_EQ(status.completed_submissions, 1u);
  EXPECT_EQ(status.rejected_submissions, 0u);
  EXPECT_EQ(status.workers, 2u);
  EXPECT_GE(status.uptime_s, 0.0);
  EXPECT_GE(status.runs_per_s, 0.0);

  // The snapshot round-trips through its wire JSON.
  const std::string json = ServiceStatusToJson(status);
  EXPECT_EQ(StatusField(json, "queue_capacity", -1), 16.0);
  EXPECT_EQ(StatusField(json, "completed_runs", -1), 2.0);
  EXPECT_EQ(StatusField(json, "workers", -1), 2.0);
  EXPECT_EQ(StatusField(json, "missing_field", -7.0), -7.0);
}

TEST(ExperimentServiceTest, DoneFiresOncePerSubmissionWithItsRecordCount) {
  ExperimentService service({/*queue_depth=*/8, /*workers=*/2, /*start_workers=*/true});
  Collector collector;
  std::mutex mutex;
  std::vector<std::pair<std::uint64_t, std::size_t>> done;
  const auto submitted = service.Submit(
      kQuickRequest, collector.fn(),
      [&](std::uint64_t submission, std::size_t records, const std::string& error) {
        EXPECT_TRUE(error.empty()) << error;
        std::lock_guard<std::mutex> lock(mutex);
        done.emplace_back(submission, records);
      });
  ASSERT_TRUE(submitted.ok()) << submitted.error().Render();
  service.Drain();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].first, submitted->submission);
  EXPECT_EQ(done[0].second, 3u);
}

TEST(ExperimentServiceTest, ShutdownDrainsAdmittedWorkAndRefusesNew) {
  Collector collector;
  std::uint64_t admitted = 0;
  {
    ExperimentService service({/*queue_depth=*/16, /*workers=*/2, /*start_workers=*/true});
    const auto submitted = service.Submit(kQuickRequest, collector.fn());
    ASSERT_TRUE(submitted.ok()) << submitted.error().Render();
    admitted = submitted->submission;

    service.Shutdown();
    const auto refused = service.Submit(kQuickRequest, collector.fn());
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.error().code, RequestErrorCode::kShuttingDown);
  }
  // Every admitted record streamed before Shutdown returned.
  EXPECT_EQ(collector.Lines(admitted).size(), 3u);
}

}  // namespace
}  // namespace eas
