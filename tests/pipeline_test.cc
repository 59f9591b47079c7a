#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <string>

#include "models/swiftnet.h"
#include "models/zoo.h"
#include "sched/baselines.h"
#include "sched/schedule.h"
#include "testing/fault_injection.h"
#include "util/cancel_token.h"
#include "util/memory_budget.h"

namespace serenity::core {
namespace {

TEST(Pipeline, FullSerenityOnSwiftNet) {
  const graph::Graph g = models::MakeSwiftNet();
  const PipelineResult r = Pipeline().Run(g);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_TRUE(sched::IsTopologicalOrder(r.scheduled_graph, r.schedule));
  EXPECT_EQ(r.scheduled_graph.num_nodes(), 90);
  EXPECT_EQ(r.rewrite_report.TotalPatterns(), 6);
  EXPECT_GT(r.states_expanded, 0u);
  EXPECT_EQ(r.peak_bytes,
            sched::PeakFootprint(r.scheduled_graph, r.schedule));
}

TEST(Pipeline, DpOnlyConfigurationKeepsGraph) {
  const graph::Graph g = models::MakeSwiftNet();
  PipelineOptions options;
  options.enable_rewriting = false;
  const PipelineResult r = Pipeline(options).Run(g);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.scheduled_graph.num_nodes(), g.num_nodes());
  EXPECT_EQ(r.rewrite_report.TotalPatterns(), 0);
}

TEST(Pipeline, RewritingNeverHurtsThePeak) {
  for (const auto factory :
       {&models::MakeSwiftNetCellA, &models::MakeSwiftNetCellB,
        &models::MakeSwiftNetCellC}) {
    const graph::Graph g = factory();
    PipelineOptions dp_only;
    dp_only.enable_rewriting = false;
    const PipelineResult without = Pipeline(dp_only).Run(g);
    const PipelineResult with = Pipeline().Run(g);
    ASSERT_TRUE(without.status.ok() && with.status.ok());
    EXPECT_LE(with.peak_bytes, without.peak_bytes) << g.name();
  }
}

TEST(Pipeline, DpBeatsOrMatchesEveryBaseline) {
  for (const auto factory :
       {&models::MakeSwiftNetCellA, &models::MakeSwiftNetCellB}) {
    const graph::Graph g = factory();
    PipelineOptions options;
    options.enable_rewriting = false;  // same graph as the baselines
    const PipelineResult r = Pipeline(options).Run(g);
    ASSERT_TRUE(r.status.ok());
    EXPECT_LE(r.peak_bytes,
              sched::PeakFootprint(g, sched::TfLiteOrderSchedule(g)));
    EXPECT_LE(r.peak_bytes,
              sched::PeakFootprint(g, sched::KahnFifoSchedule(g)));
    EXPECT_LE(r.peak_bytes,
              sched::PeakFootprint(g, sched::DfsPostorderSchedule(g)));
    EXPECT_LE(r.peak_bytes,
              sched::PeakFootprint(g, sched::GreedyMemorySchedule(g)));
  }
}

TEST(Pipeline, PartitioningDoesNotChangeTheOptimum) {
  const graph::Graph g = models::MakeSwiftNet();
  PipelineOptions with_dc;
  with_dc.enable_rewriting = false;
  PipelineOptions without_dc = with_dc;
  without_dc.enable_partitioning = false;
  const PipelineResult a = Pipeline(with_dc).Run(g);
  const PipelineResult b = Pipeline(without_dc).Run(g);
  ASSERT_TRUE(a.status.ok() && b.status.ok());
  EXPECT_EQ(a.peak_bytes, b.peak_bytes);
  EXPECT_GT(a.segment_sizes.size(), b.segment_sizes.size());
}

TEST(Pipeline, SoftBudgetingMatchesPlainDp) {
  const graph::Graph g = models::MakeSwiftNetCellA();
  PipelineOptions with_sb;
  with_sb.enable_rewriting = false;
  PipelineOptions without_sb = with_sb;
  without_sb.enable_soft_budgeting = false;
  const PipelineResult a = Pipeline(with_sb).Run(g);
  const PipelineResult b = Pipeline(without_sb).Run(g);
  ASSERT_TRUE(a.status.ok() && b.status.ok());
  EXPECT_EQ(a.peak_bytes, b.peak_bytes);
}

TEST(Pipeline, ReportsFailureWhenResourcesExhausted) {
  const graph::Graph g = models::MakeSwiftNetCellA();
  PipelineOptions options;
  options.enable_partitioning = false;
  options.soft_budget.max_states_per_attempt = 5;  // hopeless
  const PipelineResult r = Pipeline(options).Run(g);
  EXPECT_FALSE(r.status.ok());
  EXPECT_NE(r.status.message().find("timeout"), std::string::npos)
      << r.status.ToString();
  EXPECT_TRUE(r.schedule.empty());
}

// Every outcome of Run maps to exactly one Status code, decided in one
// place; degraded runs are OK and say why they degraded.
TEST(Pipeline, EachOutcomeMapsToOneStatusCode) {
  util::CancelToken fired;
  fired.Cancel();
  util::MemoryBudget starved(1);  // refuses every search charge
  PipelineOptions cancelled;
  cancelled.cancel = &fired;
  PipelineOptions memory;
  memory.memory_budget = &starved;
  PipelineOptions deadline;
  deadline.deadline_seconds = 0.0;
  PipelineOptions state_cap;
  state_cap.soft_budget.max_states_per_attempt = 5;
  PipelineOptions degraded_deadline = deadline;
  degraded_deadline.degrade_on_deadline = true;
  PipelineOptions degraded_memory = memory;
  degraded_memory.degrade_on_deadline = true;

  struct Row {
    const char* name;
    const PipelineOptions& options;
    util::StatusCode code;
    const char* message;  // substring of the status message
    DegradeReason reason;
  };
  using util::StatusCode;
  const Row rows[] = {
      {"cancelled", cancelled, StatusCode::kCancelled, "cancelled",
       DegradeReason::kNone},
      {"memory", memory, StatusCode::kResourceExhausted,
       "resource exhausted", DegradeReason::kNone},
      {"deadline", deadline, StatusCode::kDeadlineExceeded, "expired",
       DegradeReason::kNone},
      {"state cap", state_cap, StatusCode::kDeadlineExceeded, "timeout",
       DegradeReason::kNone},
      {"degraded on deadline", degraded_deadline, StatusCode::kOk, "",
       DegradeReason::kDeadline},
      {"degraded on memory", degraded_memory, StatusCode::kOk, "",
       DegradeReason::kMemory},
  };
  const graph::Graph g = models::MakeSwiftNetCellA();
  for (const Row& r : rows) {
    const PipelineResult result = Pipeline(r.options).Run(g);
    EXPECT_EQ(result.status.code(), r.code)
        << r.name << ": " << result.status.ToString();
    EXPECT_NE(result.status.message().find(r.message), std::string::npos)
        << r.name << ": " << result.status.ToString();
    EXPECT_EQ(result.degrade_reason, r.reason) << r.name;
    if (result.status.ok()) {
      EXPECT_GT(result.quality, PlanQuality::kExact) << r.name;
      EXPECT_TRUE(
          sched::IsTopologicalOrder(result.scheduled_graph, result.schedule))
          << r.name;
    } else {
      EXPECT_EQ(result.quality, PlanQuality::kExact) << r.name;
      EXPECT_TRUE(result.schedule.empty()) << r.name;
    }
  }
}

// An injected scheduler timeout on a run without a deadline is reported as
// a timeout, not as an expired deadline of infinite seconds.
TEST(Pipeline, InjectedTimeoutWithoutDeadlineNamesNoInfiniteDeadline) {
  const PipelineOptions options;
  ASSERT_FALSE(std::isfinite(options.deadline_seconds));
  serenity::testing::ScopedFault fault(
      serenity::testing::FaultPoint::kSchedulerTimeout);
  const PipelineResult result =
      Pipeline(options).Run(models::MakeSwiftNetCellA());
  EXPECT_EQ(result.status.code(), util::StatusCode::kDeadlineExceeded)
      << result.status.ToString();
  EXPECT_NE(result.status.message().find("scheduler timeout"),
            std::string::npos)
      << result.status.ToString();
  EXPECT_EQ(result.status.message().find("inf"), std::string::npos)
      << result.status.ToString();
}

TEST(Pipeline, SegmentSizesSumToGraph) {
  const graph::Graph g = models::MakeSwiftNet();
  const PipelineResult r = Pipeline().Run(g);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(std::accumulate(r.segment_sizes.begin(), r.segment_sizes.end(),
                            0),
            r.scheduled_graph.num_nodes());
}

TEST(Pipeline, TimingFieldsPopulated) {
  const graph::Graph g = models::MakeSwiftNetCellB();
  const PipelineResult r = Pipeline().Run(g);
  ASSERT_TRUE(r.status.ok());
  EXPECT_GE(r.rewrite_seconds, 0.0);
  EXPECT_GE(r.partition_seconds, 0.0);
  EXPECT_GT(r.schedule_seconds, 0.0);
  EXPECT_GE(r.total_seconds,
            r.rewrite_seconds + r.partition_seconds + r.schedule_seconds -
                1e-6);
}

}  // namespace
}  // namespace serenity::core
