#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "models/random_cell.h"
#include "models/randwire.h"
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

// The default Pipeline (rewrite, partitioning and soft budgeting on) beyond
// the paper's single-segment zoo: multi-segment random cell stacks and
// SwiftNet, where each segment's stages share that segment's tables and
// the combined peak reads the whole graph's, and two larger RandWire
// cells. The pinned fields move if any stage reads the wrong table.
TEST(Pipeline, DefaultRunIsPinnedBeyondTheZoo) {
  struct Case {
    graph::Graph graph;
    std::int64_t peak_bytes;
    std::uint64_t states_expanded;
    std::uint64_t states_pruned_by_bound;
    std::uint64_t max_level_states;
    std::vector<int> segment_sizes;
    sched::Schedule schedule;
  };
  const auto cell_stack = [](std::uint64_t seed) {
    models::RandomCellParams params;
    params.seed = seed;
    params.num_cells = 3;
    params.spatial = 4;
    return models::MakeRandomCellNetwork(params);
  };
  const Case cases[] = {
      {cell_stack(1),
       2880, 710, 837, 40, {30, 27, 28},
       {0,  1,  2,  3,  9,  13, 10, 14, 11, 15, 12, 16, 8,  4,  5,  26, 6,
        20, 7,  27, 28, 24, 17, 21, 18, 22, 19, 23, 25, 29, 37, 38, 33, 49,
        30, 31, 36, 40, 32, 42, 39, 43, 44, 34, 41, 35, 45, 55, 53, 46, 50,
        47, 51, 48, 52, 54, 56, 58, 59, 61, 62, 64, 67, 65, 66, 69, 70, 71,
        63, 68, 72, 57, 60, 76, 82, 83, 80, 73, 77, 74, 78, 75, 79, 81, 84}},
      {cell_stack(2),
       2688, 336, 405, 22, {29, 28, 27},
       {0,  1,  2,  3,  4,  6,  7,  11, 5,  20, 8,  26, 27, 9,  10, 12, 13,
        14, 15, 16, 24, 17, 21, 18, 22, 19, 23, 25, 28, 30, 33, 37, 41, 38,
        42, 29, 31, 34, 54, 36, 55, 35, 32, 48, 39, 40, 43, 44, 52, 45, 49,
        46, 50, 47, 51, 53, 56, 57, 60, 76, 58, 61, 62, 67, 59, 65, 63, 68,
        69, 66, 70, 64, 71, 72, 82, 80, 73, 77, 74, 78, 75, 79, 81, 83}},
      {cell_stack(3),
       2624, 567, 706, 27, {29, 29, 27},
       {0,  1,  2,  7,  9,  3,  6,  5,  26, 27, 8,  12, 13, 10, 14, 4,  11,
        15, 16, 20, 24, 17, 21, 18, 22, 19, 23, 25, 28, 29, 30, 31, 54, 36,
        37, 34, 39, 41, 38, 42, 43, 40, 44, 32, 33, 55, 35, 56, 48, 52, 45,
        49, 46, 50, 47, 51, 53, 57, 58, 60, 65, 68, 62, 64, 66, 67, 70, 71,
        72, 59, 69, 61, 63, 73, 77, 83, 81, 74, 78, 75, 79, 76, 80, 82, 84}},
      {models::MakeSwiftNet(),
       244608, 4396, 1101, 408, {35, 28, 27},
       {0,  1,  2,  10, 3,  11, 4,  12, 5,  13, 6,  14, 7,  15, 8,  16, 9,
        17, 23, 24, 18, 25, 30, 31, 19, 26, 20, 27, 21, 22, 28, 29, 32, 33,
        34, 35, 41, 36, 42, 37, 43, 38, 44, 39, 45, 40, 46, 52, 53, 47, 48,
        49, 50, 51, 54, 55, 56, 57, 58, 59, 60, 61, 62, 63, 68, 64, 69, 65,
        70, 66, 71, 67, 72, 73, 74, 81, 75, 76, 77, 78, 79, 80, 82, 83, 84,
        85, 86, 87, 88, 89}},
      {models::MakeRandWireCell({.num_nodes = 40, .seed = 1}),
       622592, 74591, 39365, 8337, {43},
       {0,  1,  2,  3,  9,  10, 11, 22, 4,  5,  37, 6,  8,  7,  12, 16, 20,
        27, 21, 23, 30, 32, 25, 34, 13, 36, 38, 40, 17, 24, 28, 35, 19, 29,
        33, 31, 26, 14, 15, 18, 39, 41, 42}},
      {models::MakeRandWireCell({.num_nodes = 48, .seed = 2}),
       589824, 259297, 124119, 22073, {51},
       {0,  1,  2,  3,  4,  7,  9,  6,  8,  10, 12, 13, 14, 15, 17, 23, 24,
        25, 26, 36, 27, 37, 5,  42, 11, 16, 18, 19, 35, 41, 46, 21, 22, 29,
        28, 32, 34, 39, 43, 44, 30, 20, 31, 38, 40, 33, 45, 47, 48, 49, 50}},
  };
  for (const Case& want : cases) {
    const graph::Graph& g = want.graph;
    const PipelineResult r = Pipeline().Run(g);
    ASSERT_TRUE(r.status.ok()) << g.name() << ": " << r.status.ToString();
    EXPECT_EQ(r.quality, PlanQuality::kExact) << g.name();
    EXPECT_EQ(r.peak_bytes, want.peak_bytes) << g.name();
    EXPECT_EQ(r.schedule, want.schedule) << g.name();
    EXPECT_EQ(r.segment_sizes, want.segment_sizes) << g.name();
    EXPECT_EQ(r.states_expanded, want.states_expanded) << g.name();
    EXPECT_EQ(r.states_pruned_by_bound, want.states_pruned_by_bound)
        << g.name();
    EXPECT_EQ(r.max_level_states, want.max_level_states) << g.name();
  }
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
