// Cross-module property tests over randomly generated irregular networks
// (models::MakeRandomCellNetwork): for a sweep of seeds, every invariant
// that ties the scheduler stack together must hold simultaneously.
#include <gtest/gtest.h>

#include "alloc/arena_planner.h"
#include "core/dp_scheduler.h"
#include "core/partitioner.h"
#include "core/pipeline.h"
#include "core/soft_budget.h"
#include "models/random_cell.h"
#include "rewrite/rewriter.h"
#include "runtime/executor.h"
#include "runtime/tensor.h"
#include "sched/baselines.h"
#include "sched/beam.h"
#include "sched/schedule.h"
#include "util/rng.h"

namespace serenity {
namespace {

models::RandomCellParams ParamsForSeed(int seed) {
  models::RandomCellParams p;
  p.seed = static_cast<std::uint64_t>(seed) * 2654435761u + 17;
  p.num_intermediates = 5 + seed % 6;
  p.concat_branches = (seed % 3 == 0) ? 0 : 3 + seed % 3;
  p.depthwise_block = seed % 2 == 0;
  p.num_cells = 1 + seed % 3;
  p.spatial = 8;
  p.name = "prop_net";
  return p;
}

class RandomNetworkProperties : public ::testing::TestWithParam<int> {};

TEST_P(RandomNetworkProperties, SchedulerStackInvariants) {
  const graph::Graph g = models::MakeRandomCellNetwork(
      ParamsForSeed(GetParam()));
  ASSERT_TRUE(g.Validate().empty());

  // --- DP is optimal within every baseline's reach and self-consistent.
  const core::DpResult dp = core::ScheduleDp(g);
  ASSERT_EQ(dp.status, core::DpStatus::kSolution);
  EXPECT_EQ(dp.peak_bytes, sched::PeakFootprint(g, dp.schedule));
  for (const sched::Schedule& s :
       {sched::TfLiteOrderSchedule(g), sched::KahnFifoSchedule(g),
        sched::DfsPostorderSchedule(g), sched::GreedyMemorySchedule(g)}) {
    EXPECT_LE(dp.peak_bytes, sched::PeakFootprint(g, s));
  }

  // --- Soft budgeting and a wide beam agree with the exact optimum.
  const core::SoftBudgetResult sb = core::ScheduleWithSoftBudget(g);
  ASSERT_EQ(sb.status, core::DpStatus::kSolution);
  EXPECT_EQ(sb.peak_bytes, dp.peak_bytes);
  sched::BeamOptions wide;
  wide.width = 1 << 14;
  EXPECT_EQ(sched::ScheduleBeam(g, wide).peak_bytes, dp.peak_bytes);

  // --- Divide-and-conquer composes to the same optimum.
  const core::Partition partition = core::PartitionAtCuts(g);
  std::vector<sched::Schedule> locals;
  for (const core::Segment& segment : partition.segments) {
    const core::DpResult r = core::ScheduleDp(segment.subgraph);
    ASSERT_EQ(r.status, core::DpStatus::kSolution);
    locals.push_back(r.schedule);
  }
  const sched::Schedule combined =
      core::CombineSegmentSchedules(partition, locals);
  ASSERT_TRUE(sched::IsTopologicalOrder(g, combined));
  EXPECT_EQ(sched::PeakFootprint(g, combined), dp.peak_bytes);
}

TEST_P(RandomNetworkProperties, RewritingInvariants) {
  const graph::Graph g = models::MakeRandomCellNetwork(
      ParamsForSeed(GetParam()));
  const rewrite::RewriteResult rw = rewrite::RewriteGraph(g);
  ASSERT_TRUE(rw.graph.Validate().empty());
  EXPECT_EQ(graph::CountWeights(rw.graph), graph::CountWeights(g));
  EXPECT_EQ(graph::CountMacs(rw.graph), graph::CountMacs(g));

  // Rewriting only enlarges the schedule space: its optimum never regresses
  // (the rewritten graph can always emulate the original order).
  const core::DpResult before = core::ScheduleDp(g);
  const core::DpResult after = core::ScheduleDp(rw.graph);
  ASSERT_EQ(before.status, core::DpStatus::kSolution);
  ASSERT_EQ(after.status, core::DpStatus::kSolution);
  EXPECT_LE(after.peak_bytes, before.peak_bytes) << g.name();

  // And it computes the same function.
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<runtime::Tensor> inputs;
  for (const graph::Node& n : g.nodes()) {
    if (n.kind == graph::OpKind::kInput) {
      inputs.push_back(runtime::Tensor::Random(n.shape, rng));
    }
  }
  runtime::ReferenceExecutor original(g);
  original.Run(inputs);
  runtime::ReferenceExecutor rewritten(rw.graph);
  rewritten.Run(inputs, after.schedule);
  const auto a = original.SinkValues();
  const auto b = rewritten.SinkValues();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_LE(a[i].MaxAbsDiff(b[i]), 1e-3f) << g.name();
  }
}

TEST_P(RandomNetworkProperties, AllocatorInvariants) {
  const graph::Graph g = models::MakeRandomCellNetwork(
      ParamsForSeed(GetParam()));
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 99);
  for (int trial = 0; trial < 3; ++trial) {
    const sched::Schedule s = sched::RandomTopologicalSchedule(g, rng);
    const alloc::ArenaPlan plan = alloc::PlanArena(g, s);
    EXPECT_TRUE(alloc::ValidatePlacements(plan));
    EXPECT_GE(plan.arena_bytes, sched::PeakFootprint(g, s));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomNetworkProperties,
                         ::testing::Range(0, 18));

TEST(RandomCellGenerator, DeterministicAndScalable) {
  models::RandomCellParams p;
  p.seed = 5;
  p.num_cells = 4;
  const graph::Graph a = models::MakeRandomCellNetwork(p);
  const graph::Graph b = models::MakeRandomCellNetwork(p);
  EXPECT_EQ(a.num_nodes(), b.num_nodes());
  EXPECT_GT(a.num_nodes(), 40);
  EXPECT_EQ(a.Sinks().size(), 1u);
}

}  // namespace
}  // namespace serenity
