// Chaos suite for the fault-tolerant serving core: 1000 seeded runs, each
// injecting one fault — a scheduler timeout, a worker exception, persisted
// cache corruption (bit flip or truncation), or an arena-allocation
// failure — into a small random-cell serving flow. The contract under test
// (DESIGN.md "Failure taxonomy"): every fault yields either a correct
// degraded plan or a clean util::Status, never an abort; and whenever a
// plan IS returned, it validates against its graph and its inference sinks
// are bit-identical to ReferenceExecutor on the same schedule.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "alloc/arena_planner.h"
#include "graph/canonical_hash.h"
#include "models/random_cell.h"
#include "runtime/executor.h"
#include "serve/inference_session.h"
#include "serve/scheduler_service.h"
#include "testing/fault_injection.h"
#include "testing/runtime_inputs.h"
#include "testing/sink_compare.h"
#include "util/rng.h"

namespace serenity::serve {
namespace {

namespace ftest = serenity::testing;

models::RandomCellParams ChaosCell(int seed) {
  models::RandomCellParams p;
  p.seed = static_cast<std::uint64_t>(seed) * 1469598103u + 11;
  p.num_intermediates = 3 + seed % 5;
  p.concat_branches = (seed % 3 == 0) ? 0 : 2;
  p.depthwise_block = seed % 2 == 0;
  p.num_cells = 1;
  p.spatial = 4;
  p.channels = 3 + seed % 4;
  p.name = "chaos_cell";
  return p;
}

ServeOptions ChaosOptions() {
  ServeOptions options;
  options.num_workers = 1;
  options.upgrade_degraded_plans = false;  // opted into per scenario
  return options;
}

// The correctness gate every returned plan must pass, no matter which
// fault produced it: structural validation against its scheduled graph,
// then a real inference whose sinks are bit-identical to the reference
// executor replaying the same schedule.
void ExpectPlanCorrect(const std::shared_ptr<const CachedPlan>& plan,
                       int seed) {
  ASSERT_NE(plan, nullptr);
  const std::vector<std::string> problems = alloc::ValidatePlanForGraph(
      plan->plan.arena, plan->result.scheduled_graph, plan->plan.schedule);
  ASSERT_TRUE(problems.empty())
      << "seed " << seed << ": " << problems.front();

  util::StatusOr<InferenceSession> session = InferenceSession::Create(plan);
  ASSERT_TRUE(session.ok()) << "seed " << seed << ": "
                            << session.status().ToString();
  const std::vector<runtime::Tensor> inputs = ftest::RandomInputsFor(
      session.value().graph(), 9000 + static_cast<std::uint64_t>(seed));
  session.value().Run(inputs);
  runtime::ReferenceExecutor reference(session.value().graph());
  reference.Run(inputs, plan->plan.schedule);
  ASSERT_EQ(ftest::DescribeSinkDivergence(
                session.value().executor().SinkValues(),
                reference.SinkValues()),
            "")
      << "seed " << seed;
}

// Fault 0: the exact search times out. With degradation allowed the
// request is served a beam/greedy plan tagged below kExact; with it
// disallowed the caller gets a clean kDeadlineExceeded. A sparse subset
// additionally waits for the background upgrade to land and observes the
// cache entry replaced by the exact plan in place.
void RunSchedulerTimeoutChaos(int seed, const graph::Graph& g) {
  ServeOptions options = ChaosOptions();
  const bool allow = seed % 8 != 7;
  const bool watch_upgrade = allow && seed % 96 == 0;
  if (watch_upgrade) {
    options.upgrade_degraded_plans = true;
  }
  SchedulerService service(options);

  RequestOptions request;
  request.allow_degraded = allow;
  if (!allow) request.deadline_seconds = 0.0;
  ftest::ScopedFault fault(ftest::FaultPoint::kSchedulerTimeout);
  const ServeResult r = service.Schedule(g, request);
  if (!allow) {
    EXPECT_EQ(r.plan, nullptr) << "seed " << seed;
    EXPECT_EQ(r.status.code(), util::StatusCode::kDeadlineExceeded)
        << "seed " << seed << ": " << r.status.ToString();
    return;
  }
  ASSERT_NE(r.plan, nullptr)
      << "seed " << seed << ": " << r.status.ToString();
  EXPECT_NE(r.plan->quality, core::PlanQuality::kExact) << "seed " << seed;
  EXPECT_GE(r.plan->peak_delta_bytes, 0) << "seed " << seed;
  ExpectPlanCorrect(r.plan, seed);

  if (watch_upgrade) {
    const graph::GraphHash hash = graph::CanonicalGraphHash(g);
    for (int i = 0; i < 1000; ++i) {
      const auto entry = service.cache().Lookup(hash);
      ASSERT_NE(entry, nullptr) << "seed " << seed;
      if (entry->quality == core::PlanQuality::kExact) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    const ServeResult warm = service.Schedule(g);
    ASSERT_NE(warm.plan, nullptr) << "seed " << seed;
    EXPECT_TRUE(warm.cache_hit) << "seed " << seed;
    EXPECT_EQ(warm.plan->quality, core::PlanQuality::kExact)
        << "seed " << seed;
    ExpectPlanCorrect(warm.plan, seed);
  }
}

// Fault 1: a worker thread throws mid-job. That one request fails with
// kInternal; the worker survives and the next request plans normally.
void RunWorkerExceptionChaos(int seed, const graph::Graph& g) {
  SchedulerService service(ChaosOptions());
  {
    ftest::ScopedFault fault(ftest::FaultPoint::kWorkerException);
    const ServeResult faulted = service.Schedule(g);
    EXPECT_EQ(faulted.plan, nullptr) << "seed " << seed;
    EXPECT_EQ(faulted.status.code(), util::StatusCode::kInternal)
        << "seed " << seed << ": " << faulted.status.ToString();
  }
  const ServeResult retry = service.Schedule(g);
  ASSERT_NE(retry.plan, nullptr)
      << "seed " << seed << ": " << retry.status.ToString();
  EXPECT_EQ(retry.plan->quality, core::PlanQuality::kExact)
      << "seed " << seed;
  ExpectPlanCorrect(retry.plan, seed);
}

// Fault 2: the persisted cache file is damaged on disk — a seeded bit flip
// or truncation. Loading must never abort: either a clean Status (file
// unusable) or a report quarantining the torn entry. Either way the next
// request is served (warm from a surviving entry, or re-planned).
void RunCacheCorruptionChaos(int seed, const graph::Graph& g) {
  const std::string path = ::testing::TempDir() + "/chaos_" +
                           std::to_string(seed) + ".cache";
  {
    SchedulerService writer(ChaosOptions());
    const ServeResult r = writer.Schedule(g);
    ASSERT_NE(r.plan, nullptr)
        << "seed " << seed << ": " << r.status.ToString();
    ASSERT_TRUE(writer.cache().SaveToFile(path).ok()) << "seed " << seed;
  }
  const std::int64_t size = ftest::FileSizeBytes(path);
  ASSERT_GT(size, 0) << "seed " << seed;
  util::Rng rng(static_cast<std::uint64_t>(seed) * 69069 + 5);
  if (seed % 8 < 4) {
    ASSERT_TRUE(ftest::CorruptFileBit(
        path, rng.NextU64() % (static_cast<std::uint64_t>(size) * 8)))
        << "seed " << seed;
  } else {
    ASSERT_TRUE(ftest::TruncateFile(
        path,
        1 + static_cast<std::int64_t>(
                rng.NextU64() % static_cast<std::uint64_t>(size - 1))))
        << "seed " << seed;
  }

  SchedulerService reader(ChaosOptions());
  const util::StatusOr<CacheLoadReport> report =
      reader.cache().LoadFromFile(path);
  if (report.ok()) {
    EXPECT_GE(report.value().entries_quarantined +
                  report.value().entries_loaded,
              0)
        << "seed " << seed;
  } else {
    EXPECT_FALSE(report.status().message().empty()) << "seed " << seed;
  }
  // Losing an entry costs at most one re-plan, never the request.
  const ServeResult r = reader.Schedule(g);
  ASSERT_NE(r.plan, nullptr)
      << "seed " << seed << ": " << r.status.ToString();
  ExpectPlanCorrect(r.plan, seed);
  std::remove(path.c_str());
}

// Fault 3: the session arena allocation fails. The factory reports
// kResourceExhausted; the one-shot fault clears and the retry serves
// correct numbers.
void RunArenaFailureChaos(int seed, const graph::Graph& g) {
  SchedulerService service(ChaosOptions());
  const ServeResult r = service.Schedule(g);
  ASSERT_NE(r.plan, nullptr)
      << "seed " << seed << ": " << r.status.ToString();
  {
    ftest::ScopedFault fault(ftest::FaultPoint::kArenaAllocation);
    const util::StatusOr<InferenceSession> session =
        InferenceSession::Create(r.plan);
    ASSERT_FALSE(session.ok()) << "seed " << seed;
    EXPECT_EQ(session.status().code(),
              util::StatusCode::kResourceExhausted)
        << "seed " << seed << ": " << session.status().ToString();
  }
  ExpectPlanCorrect(r.plan, seed);
}

TEST(ServeChaos, ThousandSeededFaultsNeverAbortAndPlansStayCorrect) {
  ftest::FaultInjector::Global().DisarmAll();
  for (int seed = 0; seed < 1000; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const graph::Graph g = models::MakeRandomCellNetwork(ChaosCell(seed));
    switch (seed % 4) {
      case 0:
        RunSchedulerTimeoutChaos(seed, g);
        break;
      case 1:
        RunWorkerExceptionChaos(seed, g);
        break;
      case 2:
        RunCacheCorruptionChaos(seed, g);
        break;
      default:
        RunArenaFailureChaos(seed, g);
        break;
    }
    if (HasFatalFailure()) break;
  }
  ftest::FaultInjector::Global().DisarmAll();
}

// The injection points stay wired into the production paths even when
// disarmed — a regression that compiles a hook away would silently turn
// the whole suite into a no-op.
TEST(ServeChaos, InjectionPointsAreTraversedWhenDisarmed) {
  ftest::FaultInjector::Global().DisarmAll();
  ftest::FaultInjector::Global().ResetCounters();
  SchedulerService service(ChaosOptions());
  const graph::Graph g = models::MakeRandomCellNetwork(ChaosCell(1));
  const ServeResult r = service.Schedule(g);
  ASSERT_NE(r.plan, nullptr) << r.status.ToString();
  util::StatusOr<InferenceSession> session = InferenceSession::Create(r.plan);
  ASSERT_TRUE(session.ok());

  ftest::FaultInjector& injector = ftest::FaultInjector::Global();
  EXPECT_GE(injector.traversals(ftest::FaultPoint::kWorkerException), 1u);
  EXPECT_GE(injector.traversals(ftest::FaultPoint::kSchedulerTimeout), 1u);
  EXPECT_GE(injector.traversals(ftest::FaultPoint::kArenaAllocation), 1u);
  EXPECT_EQ(injector.fires(ftest::FaultPoint::kWorkerException), 0u);
}

}  // namespace
}  // namespace serenity::serve
