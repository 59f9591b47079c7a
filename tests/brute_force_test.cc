#include "testing/brute_force.h"

#include <gtest/gtest.h>

#include "graph/builder.h"
#include "sched/baselines.h"
#include "sched/schedule.h"
#include "util/rng.h"

namespace serenity::testing {
namespace {

using graph::GraphBuilder;
using graph::NodeId;
using graph::TensorShape;
using sched::DfsPostorderSchedule;
using sched::GreedyMemorySchedule;
using sched::IsTopologicalOrder;
using sched::KahnFifoSchedule;
using sched::PeakFootprint;
using sched::TfLiteOrderSchedule;

TensorShape Units(int c) { return TensorShape{1, 16, 16, c}; }

TEST(BruteForce, CountsOrdersOfParallelChains) {
  // in -> (a, b) -> out: orders of {a, b} are free: 2 orders.
  GraphBuilder b("two");
  const NodeId in = b.Input(Units(1), "in");
  const NodeId a = b.Conv1x1(in, 1, "a");
  const NodeId bb = b.Conv1x1(in, 1, "b");
  (void)b.Concat({a, bb}, "out");
  const graph::Graph g = std::move(b).Build();
  EXPECT_EQ(BruteForceOptimalSchedule(g).orders_enumerated, 2u);
}

TEST(BruteForce, CountsOrdersOfIndependentNodes) {
  // Three independent sources feeding one sink: 3! = 6 prefixes.
  GraphBuilder b("three");
  const NodeId a = b.Input(Units(1), "a");
  const NodeId c = b.Input(Units(1), "b");
  const NodeId d = b.Input(Units(1), "c");
  (void)b.Concat({a, c, d}, "out");
  const graph::Graph g = std::move(b).Build();
  EXPECT_EQ(BruteForceOptimalSchedule(g).orders_enumerated, 6u);
}

TEST(BruteForce, FindsTheObviousBetterOrder) {
  // in(1KB) fans out to heavy(8) and light(1); both feed dedicated sinks...
  // heavy's consumer frees it. Scheduling heavy's subtree first then
  // light's gives peak in+heavy+s1 = 1+8+1; interleaving badly gives
  // 1+8+1+1. The oracle must find the minimum.
  GraphBuilder b("choice");
  const NodeId in = b.Input(Units(1), "in");
  const NodeId heavy = b.Conv1x1(in, 8, "heavy");
  const NodeId s1 = b.Conv1x1(heavy, 1, "s1");
  const NodeId light = b.Conv1x1(in, 1, "light");
  const NodeId s2 = b.Conv1x1(light, 1, "s2");
  (void)b.Concat({s1, s2}, "out");
  const graph::Graph g = std::move(b).Build();
  const BruteForceResult r = BruteForceOptimalSchedule(g);
  EXPECT_TRUE(IsTopologicalOrder(g, r.schedule));
  EXPECT_EQ(r.peak_bytes, PeakFootprint(g, r.schedule));
  // Optimum: in, heavy, s1 (heavy dies), light, s2 (in dies), out.
  // peak = max(1+8, 1+8+1, ...) at s1: in+heavy+s1 = 10KB... concat adds
  // s1(1)+s2(1)+out(2) on top of nothing else: 4. So 10KB.
  EXPECT_EQ(r.peak_bytes, 10 * 1024);
}

TEST(BruteForce, NeverWorseThanAnyBaseline) {
  util::Rng seed_rng(99);
  for (int trial = 0; trial < 5; ++trial) {
    GraphBuilder b("rand" + std::to_string(trial));
    util::Rng rng(seed_rng.NextU64());
    std::vector<NodeId> pool;
    pool.push_back(b.Input(Units(rng.NextInt(1, 3)), "in"));
    for (int i = 0; i < 7; ++i) {
      const NodeId src = pool[static_cast<std::size_t>(
          rng.NextInt(0, static_cast<int>(pool.size()) - 1))];
      pool.push_back(b.Conv1x1(src, rng.NextInt(1, 4),
                               "n" + std::to_string(i)));
    }
    // Join all frontier nodes so there is a single sink.
    std::vector<NodeId> frontier;
    const graph::Graph& gb = b.graph();
    for (const NodeId id : pool) {
      if (gb.consumers(id).empty()) frontier.push_back(id);
    }
    if (frontier.size() >= 2) (void)b.Concat(frontier, "out");
    const graph::Graph g = std::move(b).Build();

    const BruteForceResult r = BruteForceOptimalSchedule(g);
    EXPECT_LE(r.peak_bytes, PeakFootprint(g, TfLiteOrderSchedule(g)));
    EXPECT_LE(r.peak_bytes, PeakFootprint(g, KahnFifoSchedule(g)));
    EXPECT_LE(r.peak_bytes, PeakFootprint(g, DfsPostorderSchedule(g)));
    EXPECT_LE(r.peak_bytes, PeakFootprint(g, GreedyMemorySchedule(g)));
  }
}

TEST(BruteForceDeath, RefusesOversizedSearch) {
  GraphBuilder b("wide");
  std::vector<NodeId> inputs;
  for (int i = 0; i < 12; ++i) {
    inputs.push_back(b.Input(Units(1), "i" + std::to_string(i)));
  }
  (void)b.Concat(inputs, "out");
  const graph::Graph g = std::move(b).Build();
  // 12! = 479M orders > the 1M cap we pass.
  EXPECT_DEATH(BruteForceOptimalSchedule(g, /*max_orders=*/1'000'000),
               "too many orders");
}

}  // namespace
}  // namespace serenity::testing
