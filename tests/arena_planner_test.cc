#include "alloc/arena_planner.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/pipeline.h"
#include "graph/builder.h"
#include "models/swiftnet.h"
#include "rewrite/rewriter.h"
#include "sched/baselines.h"
#include "sched/schedule.h"
#include "util/rng.h"

namespace serenity::alloc {
namespace {

using graph::GraphBuilder;
using graph::NodeId;
using graph::TensorShape;

TEST(ArenaPlanner, ChainReusesSpace) {
  // a -> b -> c -> d of equal 1KB tensors: at most two alive at once, so
  // the arena never needs more than 2 aligned slots.
  GraphBuilder b("chain");
  NodeId x = b.Input(TensorShape{1, 16, 16, 1}, "in");
  for (int i = 0; i < 3; ++i) x = b.Conv1x1(x, 1, "c" + std::to_string(i));
  const graph::Graph g = std::move(b).Build();
  const ArenaPlan plan = PlanArena(g, sched::TfLiteOrderSchedule(g));
  EXPECT_TRUE(ValidatePlacements(plan));
  EXPECT_EQ(plan.arena_bytes, 2 * 1024);
}

TEST(ArenaPlanner, ArenaIsAtLeastThePureFootprint) {
  // Fragmentation can only add memory on top of the liveness-sum model.
  const graph::Graph g = models::MakeSwiftNetCellA();
  for (const sched::Schedule& s :
       {sched::TfLiteOrderSchedule(g), sched::KahnFifoSchedule(g),
        sched::GreedyMemorySchedule(g)}) {
    const ArenaPlan plan = PlanArena(g, s);
    EXPECT_GE(plan.arena_bytes, sched::PeakFootprint(g, s));
  }
}

TEST(ArenaPlanner, NoOverlapOnRandomSchedules) {
  const graph::Graph g = models::MakeSwiftNetCellA();
  util::Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    const sched::Schedule s = sched::RandomTopologicalSchedule(g, rng);
    const ArenaPlan plan = PlanArena(g, s);
    EXPECT_TRUE(ValidatePlacements(plan));
  }
}

TEST(ArenaPlanner, NoOverlapWithAliasedBuffersAfterRewriting) {
  const rewrite::RewriteResult rw =
      rewrite::RewriteGraph(models::MakeSwiftNetCellA());
  util::Rng rng(78);
  for (int trial = 0; trial < 10; ++trial) {
    const sched::Schedule s =
        sched::RandomTopologicalSchedule(rw.graph, rng);
    const ArenaPlan plan = PlanArena(rw.graph, s);
    EXPECT_TRUE(ValidatePlacements(plan));
  }
}

TEST(ArenaPlanner, AlignmentRoundsOffsets) {
  GraphBuilder b("align");
  const NodeId in = b.Input(TensorShape{1, 5, 5, 1}, "in");  // 100 bytes
  const NodeId c1 = b.Relu(in, "r1");
  (void)b.Add({in, c1}, "out");
  const graph::Graph g = std::move(b).Build();
  const ArenaPlan plan =
      PlanArena(g, sched::TfLiteOrderSchedule(g), /*alignment=*/64);
  EXPECT_TRUE(ValidatePlacements(plan));
  for (const BufferPlacement& p : plan.placements) {
    EXPECT_EQ(p.offset % 64, 0);
  }
}

TEST(ArenaPlanner, HighwaterTraceIsConsistent) {
  const graph::Graph g = models::MakeSwiftNetCellA();
  const sched::Schedule s = sched::TfLiteOrderSchedule(g);
  const ArenaPlan plan = PlanArena(g, s);
  ASSERT_EQ(plan.highwater_at_step.size(), s.size());
  const std::int64_t max_hw = *std::max_element(
      plan.highwater_at_step.begin(), plan.highwater_at_step.end());
  EXPECT_EQ(max_hw, plan.arena_bytes);
  for (const std::int64_t hw : plan.highwater_at_step) {
    EXPECT_GE(hw, 0);
    EXPECT_LE(hw, plan.arena_bytes);
  }
}

TEST(ArenaPlanner, SinkLifetimesExtendToEnd) {
  GraphBuilder b("sink");
  const NodeId in = b.Input(TensorShape{1, 16, 16, 1}, "in");
  const NodeId out = b.Conv1x1(in, 1, "out");  // sink
  const NodeId side = b.Relu(in, "side");      // another sink
  (void)side;
  const graph::Graph g = std::move(b).Build();
  const ArenaPlan plan = PlanArena(g, sched::TfLiteOrderSchedule(g));
  for (const BufferPlacement& p : plan.placements) {
    if (p.buffer == g.node(out).buffer ||
        p.buffer == g.node(side).buffer) {
      EXPECT_EQ(p.last_step, g.num_nodes() - 1);
    }
  }
}

TEST(ArenaPlanner, SharedBufferPlacedOnce) {
  const rewrite::RewriteResult rw =
      rewrite::RewriteGraph(models::MakeSwiftNetCellA());
  const ArenaPlan plan =
      PlanArena(rw.graph, sched::TfLiteOrderSchedule(rw.graph));
  std::vector<graph::BufferId> seen;
  for (const BufferPlacement& p : plan.placements) {
    EXPECT_TRUE(std::find(seen.begin(), seen.end(), p.buffer) == seen.end());
    seen.push_back(p.buffer);
  }
}

}  // namespace
}  // namespace serenity::alloc
