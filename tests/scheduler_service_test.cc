#include "serve/scheduler_service.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "graph/canonical_hash.h"
#include "models/zoo.h"
#include "sched/schedule.h"
#include "testing/fault_injection.h"
#include "testing/random_graphs.h"
#include "util/cancel_token.h"
#include "util/rng.h"

namespace serenity::serve {
namespace {

graph::Graph Cell(const std::string& group, const std::string& name) {
  return models::FindBenchmarkCell(group, name).factory();
}

TEST(SchedulerService, ServesAndThenHitsTheCache) {
  SchedulerService service;
  const graph::Graph g = Cell("SwiftNet HPD", "Cell C");

  const ServeResult cold = service.Schedule(g);
  ASSERT_NE(cold.plan, nullptr) << cold.status.ToString();
  EXPECT_FALSE(cold.cache_hit);

  const ServeResult warm = service.Schedule(g);
  ASSERT_NE(warm.plan, nullptr);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.plan.get(), cold.plan.get()) << "same cached snapshot";

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.planned, 1u);
}

TEST(SchedulerService, CacheHitIsBitIdenticalToAFreshPipelineRun) {
  SchedulerService service;
  const graph::Graph g = Cell("SwiftNet HPD", "Cell B");
  (void)service.Schedule(g);
  const ServeResult warm = service.Schedule(g);
  ASSERT_TRUE(warm.cache_hit);

  const core::PipelineResult fresh =
      core::Pipeline(service.options().pipeline).Run(g);
  EXPECT_EQ(warm.plan->result.schedule, fresh.schedule);
  EXPECT_EQ(warm.plan->result.peak_bytes, fresh.peak_bytes);
  EXPECT_EQ(warm.plan->result.states_expanded, fresh.states_expanded);
}

TEST(SchedulerService, RelabeledGraphIsTheSameCacheEntry) {
  SchedulerService service;
  const graph::Graph g = Cell("SwiftNet HPD", "Cell C");
  util::Rng rng(7);
  const graph::Graph twin =
      serenity::testing::RelabelIsomorphic(g, rng, "twin");

  const ServeResult cold = service.Schedule(g);
  const ServeResult warm = service.Schedule(twin);
  ASSERT_NE(cold.plan, nullptr);
  EXPECT_TRUE(warm.cache_hit) << "structural twin must hit the cache";
  EXPECT_EQ(warm.hash, cold.hash);
}

TEST(SchedulerService, SingleFlightCoalescesDuplicateSubmissions) {
  SchedulerService service;  // one worker: the queue serializes planning
  const graph::Graph g = Cell("DARTS ImageNet", "Normal Cell");

  // A blocker job holds the single worker: its exact search takes seconds,
  // at least 100x what the 8 Submit calls below take, so all 8 queue
  // behind it and the last 7 coalesce onto the first. It is cancelled once
  // they are in.
  RequestOptions blocker_request;
  blocker_request.cancel = std::make_shared<util::CancelToken>();
  const Submission blocker = service.Submit(
      serenity::testing::SlowToPlanGraph(), blocker_request);

  std::vector<Submission> submissions;
  for (int i = 0; i < 8; ++i) submissions.push_back(service.Submit(g));
  EXPECT_EQ(blocker.future.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout)
      << "the blocker must outlive the 8 submissions";
  blocker_request.cancel->Cancel();
  EXPECT_EQ(blocker.future.get().status.code(),
            util::StatusCode::kCancelled);

  const CachedPlan* shared = nullptr;
  for (const Submission& s : submissions) {
    const ServeResult r = s.future.get();
    ASSERT_NE(r.plan, nullptr) << r.status.ToString();
    if (shared == nullptr) shared = r.plan.get();
    EXPECT_EQ(r.plan.get(), shared) << "one shared plan";
  }

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 9u);
  EXPECT_EQ(stats.planned, 1u) << "one Pipeline::Run per distinct graph";
  EXPECT_EQ(stats.cache_hits + stats.coalesced, 7u);
  EXPECT_EQ(stats.coalesced, 7u)
      << "submissions queued behind a busy worker must coalesce";
}

TEST(SchedulerService, BatchPlansDistinctGraphsAndCoalescesDuplicates) {
  ServeOptions options;
  options.num_workers = 4;
  SchedulerService service(options);

  const graph::Graph a = Cell("SwiftNet HPD", "Cell A");
  const graph::Graph b = Cell("SwiftNet HPD", "Cell B");
  const graph::Graph c = Cell("SwiftNet HPD", "Cell C");
  const std::vector<const graph::Graph*> batch = {&a, &b, &c, &a, &b, &c};

  const std::vector<ServeResult> results = service.ScheduleBatch(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (const ServeResult& r : results) {
    ASSERT_NE(r.plan, nullptr) << r.status.ToString();
  }
  EXPECT_EQ(results[0].hash, results[3].hash);
  EXPECT_EQ(results[0].plan.get(), results[3].plan.get());
  EXPECT_EQ(service.stats().planned, 3u);

  // A plan does not depend on which worker made it: each one matches a
  // single-threaded Pipeline run of the same graph on this thread.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const core::PipelineResult expected =
        core::Pipeline(service.options().pipeline).Run(*batch[i]);
    ASSERT_TRUE(expected.status.ok()) << "request " << i;
    const core::PipelineResult& planned = results[i].plan->result;
    EXPECT_EQ(planned.schedule, expected.schedule) << "request " << i;
    EXPECT_EQ(planned.peak_bytes, expected.peak_bytes) << "request " << i;
    EXPECT_EQ(planned.states_expanded, expected.states_expanded)
        << "request " << i;
  }

  // A second identical batch is all cache hits.
  const std::vector<ServeResult> warm = service.ScheduleBatch(batch);
  for (const ServeResult& r : warm) EXPECT_TRUE(r.cache_hit);
  EXPECT_EQ(service.stats().planned, 3u);
}

TEST(SchedulerService, PlanningFailuresAreReportedAndNotCached) {
  namespace ftest = serenity::testing;
  SchedulerService service;
  const graph::Graph g = Cell("SwiftNet HPD", "Cell C");
  RequestOptions strict;
  strict.allow_degraded = false;

  // Failures are not cached: the second request plans (and fails) again.
  for (int attempt = 0; attempt < 2; ++attempt) {
    ftest::ScopedFault fault(ftest::FaultPoint::kSchedulerTimeout);
    const ServeResult failed = service.Schedule(g, strict);
    EXPECT_EQ(failed.plan, nullptr) << "attempt " << attempt;
    EXPECT_FALSE(failed.cache_hit) << "attempt " << attempt;
    EXPECT_EQ(failed.status.code(), util::StatusCode::kDeadlineExceeded)
        << failed.status.ToString();
    EXPECT_NE(failed.status.message().find("expired"), std::string::npos)
        << failed.status.ToString();
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.failures, 2u);
  EXPECT_EQ(stats.cache.entries, 0u);
}

TEST(SchedulerService, WarmRestartServesFromPersistedCache) {
  const std::string path = ::testing::TempDir() + "/serve_cache.v1";
  const graph::Graph g = Cell("SwiftNet HPD", "Cell B");
  sched::Schedule cold_schedule;
  {
    SchedulerService service;
    const ServeResult cold = service.Schedule(g);
    ASSERT_NE(cold.plan, nullptr);
    cold_schedule = cold.plan->result.schedule;
    ASSERT_TRUE(service.cache().SaveToFile(path).ok());
  }
  {
    SchedulerService restarted;
    const util::StatusOr<CacheLoadReport> report =
        restarted.cache().LoadFromFile(path);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_EQ(report.value().entries_loaded, 1);
    const ServeResult warm = restarted.Schedule(g);
    ASSERT_NE(warm.plan, nullptr);
    EXPECT_TRUE(warm.cache_hit) << "warm restart must skip re-planning";
    EXPECT_EQ(warm.plan->result.schedule, cold_schedule);
    EXPECT_EQ(restarted.stats().planned, 0u);
  }
  std::remove(path.c_str());
}

// Thread-safety smoke for the sanitizer job: many client threads hammer a
// small graph set through every serve path concurrently.
TEST(SchedulerService, ConcurrentMixedTrafficIsRaceFree) {
  ServeOptions options;
  options.num_workers = 3;
  SchedulerService service(options);
  const std::vector<graph::Graph> graphs = {
      Cell("SwiftNet HPD", "Cell B"), Cell("SwiftNet HPD", "Cell C"),
      Cell("RandWire CIFAR100", "Cell C")};

  constexpr int kClients = 6;
  constexpr int kRequestsPerClient = 12;
  std::vector<std::thread> clients;
  std::vector<int> successes(kClients, 0);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kRequestsPerClient; ++i) {
        const ServeResult r =
            service.Schedule(graphs[(t + i) % graphs.size()]);
        if (r.plan != nullptr &&
            sched::IsTopologicalOrder(r.plan->result.scheduled_graph,
                                      r.plan->result.schedule)) {
          ++successes[t];
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  for (int t = 0; t < kClients; ++t) {
    EXPECT_EQ(successes[t], kRequestsPerClient);
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests,
            static_cast<std::uint64_t>(kClients * kRequestsPerClient));
  EXPECT_EQ(stats.planned, graphs.size());
  EXPECT_EQ(stats.cache_hits + stats.coalesced + stats.planned,
            stats.requests);
}

TEST(SchedulerService, ExpiredDeadlineDegradesToAFeasiblePlan) {
  SchedulerService service;
  const graph::Graph g = Cell("SwiftNet HPD", "Cell C");
  RequestOptions request;
  request.deadline_seconds = 0.0;  // already expired at submission
  request.allow_degraded = true;

  const ServeResult r = service.Schedule(g, request);
  ASSERT_NE(r.plan, nullptr) << r.status.ToString();
  EXPECT_TRUE(r.status.ok());
  EXPECT_NE(r.plan->quality, core::PlanQuality::kExact);
  EXPECT_EQ(r.plan->result.degrade_reason, core::DegradeReason::kDeadline);
  EXPECT_TRUE(sched::IsTopologicalOrder(r.plan->result.scheduled_graph,
                                        r.plan->result.schedule));
  EXPECT_GE(r.plan->peak_delta_bytes, 0);
  EXPECT_GE(service.stats().degraded_plans, 1u);
}

TEST(SchedulerService, ExpiredDeadlineWithoutDegradationIsACleanError) {
  ServeOptions options;
  options.upgrade_degraded_plans = false;
  SchedulerService service(options);
  const graph::Graph g = Cell("SwiftNet HPD", "Cell C");
  RequestOptions request;
  request.deadline_seconds = 0.0;
  request.allow_degraded = false;

  const ServeResult r = service.Schedule(g, request);
  EXPECT_EQ(r.plan, nullptr);
  EXPECT_EQ(r.status.code(), util::StatusCode::kDeadlineExceeded);

  // The failure is not cached, and the service still serves afterwards.
  const ServeResult ok = service.Schedule(g);
  ASSERT_NE(ok.plan, nullptr) << ok.status.ToString();
  EXPECT_EQ(ok.plan->quality, core::PlanQuality::kExact);
}

TEST(SchedulerService, DegradedEntryIsUpgradedToExactInPlace) {
  ServeOptions options;
  options.upgrade_degraded_plans = true;
  SchedulerService service(options);
  const graph::Graph g = Cell("SwiftNet HPD", "Cell C");
  const graph::GraphHash hash = graph::CanonicalGraphHash(g);

  RequestOptions rushed;
  rushed.deadline_seconds = 0.0;
  const ServeResult degraded = service.Schedule(g, rushed);
  ASSERT_NE(degraded.plan, nullptr) << degraded.status.ToString();
  ASSERT_NE(degraded.plan->quality, core::PlanQuality::kExact);

  // The background upgrade replaces the cache entry with the exact plan.
  for (int i = 0; i < 1000; ++i) {
    const auto entry = service.cache().Lookup(hash);
    ASSERT_NE(entry, nullptr);
    if (entry->quality == core::PlanQuality::kExact) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const auto upgraded = service.cache().Lookup(hash);
  ASSERT_NE(upgraded, nullptr);
  EXPECT_EQ(upgraded->quality, core::PlanQuality::kExact);
  EXPECT_EQ(upgraded->peak_delta_bytes, 0);
  EXPECT_GE(service.stats().upgrades, 1u);

  // A later un-rushed request observes the upgraded entry as a cache hit —
  // bit-identical to a fresh exact run.
  const ServeResult warm = service.Schedule(g);
  ASSERT_NE(warm.plan, nullptr);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.plan->quality, core::PlanQuality::kExact);
  const core::PipelineResult fresh =
      core::Pipeline(service.options().pipeline).Run(g);
  EXPECT_EQ(warm.plan->result.schedule, fresh.schedule);
  EXPECT_EQ(warm.plan->result.peak_bytes, fresh.peak_bytes);
}

// An upgrade gets one attempt. The first scheduler-timeout traversal is the
// rushed request's own run (degraded anyway); the second, the upgrade's, is
// forced to time out. The failure is counted, nothing re-plans, and the
// degraded entry keeps serving.
TEST(SchedulerService, FailedUpgradeIsNotRetried) {
  namespace ftest = serenity::testing;
  ServeOptions options;
  options.upgrade_degraded_plans = true;
  SchedulerService service(options);
  const graph::Graph g = Cell("SwiftNet HPD", "Cell C");
  const graph::GraphHash hash = graph::CanonicalGraphHash(g);

  ftest::FaultInjector::Global().ResetCounters();
  ftest::ScopedFault fault(ftest::FaultPoint::kSchedulerTimeout, /*skip=*/1);
  RequestOptions rushed;
  rushed.deadline_seconds = 0.0;
  const ServeResult degraded = service.Schedule(g, rushed);
  ASSERT_NE(degraded.plan, nullptr) << degraded.status.ToString();
  ASSERT_NE(degraded.plan->quality, core::PlanQuality::kExact);

  for (int i = 0; i < 1000; ++i) {
    const ServiceStats s = service.stats();
    if (s.upgrades + s.upgrade_failures > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // Long enough for a retry to have started and finished, were there one.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.upgrade_failures, 1u);
  EXPECT_EQ(stats.upgrades, 0u);
  const auto entry = service.cache().Lookup(hash);
  ASSERT_NE(entry, nullptr);
  EXPECT_NE(entry->quality, core::PlanQuality::kExact);
  EXPECT_EQ(ftest::FaultInjector::Global().traversals(
                ftest::FaultPoint::kSchedulerTimeout),
            2u);
}

TEST(SchedulerService, InjectedWorkerExceptionFailsOneRequestNotTheWorker) {
  SchedulerService service;
  const graph::Graph g = Cell("SwiftNet HPD", "Cell B");

  {
    serenity::testing::ScopedFault fault(
        serenity::testing::FaultPoint::kWorkerException);
    const ServeResult faulted = service.Schedule(g);
    EXPECT_EQ(faulted.plan, nullptr);
    EXPECT_EQ(faulted.status.code(), util::StatusCode::kInternal);
    EXPECT_NE(faulted.status.message().find("injected"), std::string::npos);
  }

  // The worker thread survived the exception and serves the next request.
  const ServeResult ok = service.Schedule(g);
  ASSERT_NE(ok.plan, nullptr) << ok.status.ToString();
  EXPECT_EQ(service.stats().failures, 1u);
}

TEST(SchedulerService, InjectedSchedulerTimeoutDegradesDeterministically) {
  SchedulerService service;
  const graph::Graph g = Cell("SwiftNet HPD", "Cell A");

  serenity::testing::ScopedFault fault(
      serenity::testing::FaultPoint::kSchedulerTimeout);
  RequestOptions request;
  request.allow_degraded = true;  // no wall-clock deadline needed
  const ServeResult r = service.Schedule(g, request);
  ASSERT_NE(r.plan, nullptr) << r.status.ToString();
  EXPECT_NE(r.plan->quality, core::PlanQuality::kExact);
  EXPECT_EQ(r.plan->result.degrade_reason, core::DegradeReason::kDeadline);
}

}  // namespace
}  // namespace serenity::serve
