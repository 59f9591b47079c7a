// Randomized property suite pinning the arena planner to the seed's
// quadratic algorithm (`testing::ReferencePlanArena`): every placement
// field, the arena size and the per-step highwater trace must be
// bit-identical across alignments and schedules, on 1000 small random
// DAGs and on the nine zoo cells (TFLite and Pipeline order) plus three
// 100-400-op random DAGs. Also pins ValidatePlacements to the reference
// pairwise check, including on corrupted plans.
#include "alloc/arena_planner.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sched/baselines.h"
#include "sched/schedule.h"
#include "testing/random_graphs.h"
#include "testing/reference_impls.h"
#include "util/rng.h"

namespace serenity::alloc {
namespace {

void ExpectPlansIdentical(const ArenaPlan& got, const ArenaPlan& want,
                          const std::string& context) {
  ASSERT_EQ(got.placements.size(), want.placements.size()) << context;
  for (std::size_t i = 0; i < got.placements.size(); ++i) {
    const BufferPlacement& g = got.placements[i];
    const BufferPlacement& w = want.placements[i];
    EXPECT_EQ(g.buffer, w.buffer) << context << " placement " << i;
    EXPECT_EQ(g.offset, w.offset) << context << " placement " << i;
    EXPECT_EQ(g.size, w.size) << context << " placement " << i;
    EXPECT_EQ(g.first_step, w.first_step) << context << " placement " << i;
    EXPECT_EQ(g.last_step, w.last_step) << context << " placement " << i;
  }
  EXPECT_EQ(got.arena_bytes, want.arena_bytes) << context;
  EXPECT_EQ(got.highwater_at_step, want.highwater_at_step) << context;
}

TEST(ArenaPlannerProperty, BitIdenticalToReferenceOnRandomGraphs) {
  util::Rng rng(2024);
  constexpr int kGraphs = 1000;
  for (int i = 0; i < kGraphs; ++i) {
    testing::RandomDagOptions opts;
    opts.num_ops = 4 + i % 13;
    opts.max_channels = 1 + i % 5;
    opts.extra_edge_p = (i % 4) * 0.2;
    opts.join_sinks = i % 3 != 0;
    const graph::Graph g =
        testing::RandomDag(rng, opts, "prop" + std::to_string(i));
    const sched::Schedule s = (i % 2 == 0)
                                  ? sched::TfLiteOrderSchedule(g)
                                  : sched::RandomTopologicalSchedule(g, rng);
    const graph::BufferUseTable table = graph::BufferUseTable::Build(g);
    const std::int64_t alignment = (i % 3 == 0) ? 1 : 64;
    const ArenaPlan plan = PlanArena(g, table, s, alignment);
    const ArenaPlan ref =
        testing::ReferencePlanArena(g, table, s, alignment);
    ExpectPlansIdentical(plan, ref, "graph " + std::to_string(i));
    EXPECT_TRUE(ValidatePlacements(plan));
    if (::testing::Test::HasFailure()) return;  // one counterexample
  }
  for (const testing::ScheduledGraph& input :
       testing::ZooAndLargeDagInputs()) {
    const graph::BufferUseTable table =
        graph::BufferUseTable::Build(input.graph);
    for (const std::int64_t alignment : {4, 64, 256}) {
      const ArenaPlan plan =
          PlanArena(input.graph, table, input.schedule, alignment);
      const ArenaPlan ref = testing::ReferencePlanArena(
          input.graph, table, input.schedule, alignment);
      ExpectPlansIdentical(plan, ref,
                           input.label + " alignment " +
                               std::to_string(alignment));
      EXPECT_TRUE(ValidatePlacements(plan));
      if (::testing::Test::HasFailure()) return;  // one counterexample
    }
  }
}

TEST(ArenaPlannerProperty, ValidatorMatchesReference) {
  util::Rng rng(777);
  for (int i = 0; i < 300; ++i) {
    testing::RandomDagOptions opts;
    opts.num_ops = 4 + i % 10;
    const graph::Graph g =
        testing::RandomDag(rng, opts, "val" + std::to_string(i));
    const sched::Schedule s = sched::TfLiteOrderSchedule(g);
    ArenaPlan plan = PlanArena(g, s);
    EXPECT_TRUE(ValidatePlacements(plan));
    EXPECT_TRUE(testing::ReferenceValidatePlacements(plan));
    // Corrupt offsets, sizes, arena bounds and lifetimes — including
    // degenerate inverted lifetimes (first_step > last_step) — and
    // require both validators to agree on the verdict.
    for (int c = 0; c < 10 && !plan.placements.empty(); ++c) {
      ArenaPlan bad = plan;
      const std::size_t victim = static_cast<std::size_t>(rng.NextInt(
          0, static_cast<int>(bad.placements.size()) - 1));
      switch (rng.NextInt(0, 4)) {
        case 0:
          bad.placements[victim].offset -= 1 + rng.NextInt(0, 4096);
          break;
        case 1:
          bad.placements[victim].size += 1 + rng.NextInt(0, 4096);
          break;
        case 2:
          bad.placements[victim].size -=
              bad.placements[victim].size + rng.NextInt(0, 3);
          break;
        case 3:
          std::swap(bad.placements[victim].first_step,
                    bad.placements[victim].last_step);
          bad.placements[victim].first_step += rng.NextInt(0, 6);
          break;
        default:
          bad.arena_bytes -= 1 + rng.NextInt(0, 512);
          break;
      }
      EXPECT_EQ(ValidatePlacements(bad),
                testing::ReferenceValidatePlacements(bad))
          << "graph " << i << " corruption " << c;
    }
  }
}

TEST(ArenaPlannerProperty, ValidatorCatchesCrossPlacementOverlap) {
  // Force a same-time overlap that is not adjacent in placement order.
  ArenaPlan plan;
  plan.arena_bytes = 300;
  plan.placements.push_back(BufferPlacement{0, 0, 100, 0, 9});
  plan.placements.push_back(BufferPlacement{1, 200, 100, 0, 9});
  plan.placements.push_back(BufferPlacement{2, 48, 100, 0, 9});
  EXPECT_FALSE(ValidatePlacements(plan));
  EXPECT_FALSE(testing::ReferenceValidatePlacements(plan));
  // Same addresses, disjoint lifetimes: valid.
  plan.placements[2].first_step = 10;
  plan.placements[2].last_step = 12;
  EXPECT_TRUE(ValidatePlacements(plan));
  EXPECT_TRUE(testing::ReferenceValidatePlacements(plan));
}

}  // namespace
}  // namespace serenity::alloc
