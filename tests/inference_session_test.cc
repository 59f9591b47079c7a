// InferenceSession: graph -> served plan (cold or warm) -> real inference
// out of a per-session arena.
#include "serve/inference_session.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "models/swiftnet.h"
#include "runtime/executor.h"
#include "testing/fault_injection.h"
#include "testing/runtime_inputs.h"
#include "testing/sink_compare.h"
#include "util/rng.h"

namespace serenity::serve {
namespace {

TEST(InferenceSession, ColdOpenRunsRealInference) {
  SchedulerService service;
  const graph::Graph g = models::MakeSwiftNetCellA();
  InferenceSession session = InferenceSession::Open(service, g);
  EXPECT_EQ(session.arena_bytes(), session.plan().plan.arena.arena_bytes);

  const std::vector<runtime::Tensor> inputs =
      serenity::testing::RandomInputsFor(session.graph(), 5);
  session.Run(inputs);

  // The session's outputs are the reference executor's outputs, bit for
  // bit, on the scheduled graph under the served schedule.
  runtime::ReferenceExecutor reference(session.graph());
  reference.Run(inputs, session.plan().plan.schedule);
  EXPECT_EQ(serenity::testing::DescribeSinkDivergence(
                session.executor().SinkValues(), reference.SinkValues()),
            "");
}

TEST(InferenceSession, WarmRestartServesIdenticalNumbers) {
  const graph::Graph g = models::MakeSwiftNetCellC();
  const std::string cache_path =
      ::testing::TempDir() + "/inference_session_warm.cache";

  std::vector<float> cold_sink;
  {
    SchedulerService service;
    InferenceSession session = InferenceSession::Open(service, g);
    session.Run(serenity::testing::RandomInputsFor(session.graph(), 77));
    cold_sink = session.executor().SinkValues().front().ToVector();
    ASSERT_TRUE(service.cache().SaveToFile(cache_path).ok());
  }

  // A fresh service process: the plan loads from disk (validated by
  // PlanFromText) and the session must serve without planning anything.
  SchedulerService restarted;
  const util::StatusOr<CacheLoadReport> report =
      restarted.cache().LoadFromFile(cache_path);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_GT(report.value().entries_loaded, 0);
  const ServeResult r = restarted.Schedule(g);
  ASSERT_NE(r.plan, nullptr);
  EXPECT_TRUE(r.cache_hit);
  InferenceSession warm(r.plan);
  warm.Run(serenity::testing::RandomInputsFor(warm.graph(), 77));
  EXPECT_EQ(warm.executor().SinkValues().front().ToVector(), cold_sink);
  std::remove(cache_path.c_str());
}

TEST(InferenceSession, MeasuredPeakMatchesPlannedArena) {
  SchedulerService service;
  const graph::Graph g = models::MakeSwiftNet();
  InferenceSessionOptions options;
  options.executor.measure_touched_peak = true;
  InferenceSession session = InferenceSession::Open(service, g, options);
  session.Run(serenity::testing::RandomInputsFor(session.graph(), 21));
  EXPECT_EQ(session.executor().touched_peak_bytes(), session.arena_bytes());
}

TEST(InferenceSessionDeath, RefusesNullPlan) {
  EXPECT_DEATH(InferenceSession(nullptr), "without a plan");
}

TEST(InferenceSession, CreateRejectsNullPlanWithStatus) {
  const util::StatusOr<InferenceSession> session =
      InferenceSession::Create(nullptr);
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(InferenceSession, InjectedArenaFailureIsResourceExhausted) {
  SchedulerService service;
  const graph::Graph g = models::MakeSwiftNetCellB();
  const ServeResult r = service.Schedule(g);
  ASSERT_NE(r.plan, nullptr) << r.status.ToString();

  {
    serenity::testing::ScopedFault fault(
        serenity::testing::FaultPoint::kArenaAllocation);
    const util::StatusOr<InferenceSession> session =
        InferenceSession::Create(r.plan);
    ASSERT_FALSE(session.ok());
    EXPECT_EQ(session.status().code(),
              util::StatusCode::kResourceExhausted);
  }

  // One-shot fault: the retry succeeds and serves real numbers.
  util::StatusOr<InferenceSession> retry = InferenceSession::Create(r.plan);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  retry.value().Run(
      serenity::testing::RandomInputsFor(retry.value().graph(), 6));
}

}  // namespace
}  // namespace serenity::serve
