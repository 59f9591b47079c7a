#include "core/dp_scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "graph/builder.h"
#include "models/randwire.h"
#include "models/swiftnet.h"
#include "rewrite/rewriter.h"
#include "sched/baselines.h"
#include "sched/beam.h"
#include "sched/schedule.h"
#include "testing/brute_force.h"
#include "testing/random_graphs.h"
#include "testing/reference_impls.h"
#include "util/rng.h"

namespace serenity::core {
namespace {

using graph::GraphBuilder;
using graph::NodeId;
using graph::TensorShape;

TEST(DpScheduler, TrivialChain) {
  GraphBuilder b("chain");
  NodeId x = b.Input(TensorShape{1, 16, 16, 1}, "in");
  for (int i = 0; i < 4; ++i) x = b.Conv1x1(x, 1, "c" + std::to_string(i));
  const graph::Graph g = std::move(b).Build();
  const DpResult r = ScheduleDp(g);
  ASSERT_EQ(r.status, DpStatus::kSolution);
  EXPECT_TRUE(sched::IsTopologicalOrder(g, r.schedule));
  // A chain has exactly one schedule: peak = two adjacent 1KB tensors.
  EXPECT_EQ(r.peak_bytes, 2 * 1024);
  // One state per level (chain): states == number of ops.
  EXPECT_EQ(r.states_expanded, static_cast<std::uint64_t>(g.num_nodes()));
}

TEST(DpScheduler, PeakMatchesIndependentEvaluation) {
  util::Rng rng(123);
  testing::RandomDagOptions opts;
  opts.num_ops = 12;
  const graph::Graph g = testing::RandomDag(rng, opts, "eval_check");
  const DpResult r = ScheduleDp(g);
  ASSERT_EQ(r.status, DpStatus::kSolution);
  EXPECT_EQ(r.peak_bytes, sched::PeakFootprint(g, r.schedule));
}

// --- The paper's optimality claim (Appendix C), checked mechanically ---

class DpOptimalityTest : public ::testing::TestWithParam<int> {};

TEST_P(DpOptimalityTest, MatchesBruteForceOracle) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  testing::RandomDagOptions opts;
  opts.num_ops = 8;  // ~9-10 nodes: oracle-tractable
  const graph::Graph g =
      testing::RandomDag(rng, opts, "opt" + std::to_string(GetParam()));
  const testing::BruteForceResult oracle =
      testing::BruteForceOptimalSchedule(g);
  const DpResult dp = ScheduleDp(g);
  ASSERT_EQ(dp.status, DpStatus::kSolution);
  EXPECT_EQ(dp.peak_bytes, oracle.peak_bytes)
      << "DP peak diverges from exhaustive optimum on seed " << GetParam();
  EXPECT_TRUE(sched::IsTopologicalOrder(g, dp.schedule));
}

INSTANTIATE_TEST_SUITE_P(RandomDags, DpOptimalityTest,
                         ::testing::Range(0, 40));

TEST(DpScheduler, NeverWorseThanBaselinesOnModels) {
  const graph::Graph g = models::MakeSwiftNetCellA();
  const DpResult r = ScheduleDp(g);
  ASSERT_EQ(r.status, DpStatus::kSolution);
  EXPECT_LE(r.peak_bytes,
            sched::PeakFootprint(g, sched::TfLiteOrderSchedule(g)));
  EXPECT_LE(r.peak_bytes,
            sched::PeakFootprint(g, sched::KahnFifoSchedule(g)));
  EXPECT_LE(r.peak_bytes,
            sched::PeakFootprint(g, sched::DfsPostorderSchedule(g)));
  EXPECT_LE(r.peak_bytes,
            sched::PeakFootprint(g, sched::GreedyMemorySchedule(g)));
}

// --- Eager non-increasing steps (DESIGN.md) ---

TEST(DpScheduler, EagerRuleCollapsesSameSizeParallelChains) {
  // k parallel chains of same-size 1x1 convs joined by a concat. A hop
  // past a chain's first frees as much as it allocates, so once the peak
  // so far covers its step the rule runs it at once: of the unreduced
  // walk's 7^4 + 1 = 2,402 states, 494 remain.
  GraphBuilder b("parallel_chains");
  const NodeId in = b.Input(TensorShape{1, 16, 16, 2}, "in");
  std::vector<NodeId> ends;
  for (int chain = 0; chain < 4; ++chain) {
    NodeId x = in;
    for (int hop = 0; hop < 6; ++hop) {
      x = b.Conv1x1(x, 2, "c" + std::to_string(chain) + "_" +
                              std::to_string(hop));
    }
    ends.push_back(x);
  }
  (void)b.Concat(ends, "join");
  const graph::Graph g = std::move(b).Build();

  const DpResult r = ScheduleDp(g);
  ASSERT_EQ(r.status, DpStatus::kSolution);
  EXPECT_EQ(r.states_expanded, 494u);
  sched::BeamOptions exhaustive;
  exhaustive.width = std::numeric_limits<int>::max();
  const sched::BeamResult unreduced =
      testing::ReferenceScheduleBeam(g, exhaustive, /*eager=*/false);
  EXPECT_EQ(r.peak_bytes, unreduced.peak_bytes);
  EXPECT_EQ(sched::PeakFootprint(g, r.schedule), r.peak_bytes);
}

// --- Soft budget semantics (paper §3.2, Fig. 8a) ---

TEST(DpSchedulerBudget, BudgetAtOptimumStillFindsOptimum) {
  util::Rng rng(5);
  testing::RandomDagOptions opts;
  opts.num_ops = 10;
  const graph::Graph g = testing::RandomDag(rng, opts, "budget_eq");
  const DpResult unbounded = ScheduleDp(g);
  ASSERT_EQ(unbounded.status, DpStatus::kSolution);

  DpOptions exact;
  exact.budget_bytes = unbounded.peak_bytes;  // τ = µ*
  const DpResult bounded = ScheduleDp(g, exact);
  ASSERT_EQ(bounded.status, DpStatus::kSolution);
  EXPECT_EQ(bounded.peak_bytes, unbounded.peak_bytes);
}

TEST(DpSchedulerBudget, BudgetBelowOptimumHasNoSolution) {
  util::Rng rng(6);
  testing::RandomDagOptions opts;
  opts.num_ops = 10;
  const graph::Graph g = testing::RandomDag(rng, opts, "budget_lt");
  const DpResult unbounded = ScheduleDp(g);
  ASSERT_EQ(unbounded.status, DpStatus::kSolution);

  DpOptions tight;
  tight.budget_bytes = unbounded.peak_bytes - 1;  // τ < µ*
  const DpResult r = ScheduleDp(g, tight);
  EXPECT_EQ(r.status, DpStatus::kNoSolution);
}

TEST(DpSchedulerBudget, TighterBudgetsExploreFewerStates) {
  // The monotonicity that makes the binary search of Algorithm 2 sound.
  const graph::Graph g = models::MakeSwiftNetCellA();
  const DpResult unbounded = ScheduleDp(g);
  ASSERT_EQ(unbounded.status, DpStatus::kSolution);

  DpOptions loose;
  loose.budget_bytes = unbounded.peak_bytes * 2;
  DpOptions exact;
  exact.budget_bytes = unbounded.peak_bytes;
  const DpResult loose_r = ScheduleDp(g, loose);
  const DpResult exact_r = ScheduleDp(g, exact);
  ASSERT_EQ(loose_r.status, DpStatus::kSolution);
  ASSERT_EQ(exact_r.status, DpStatus::kSolution);
  EXPECT_LE(exact_r.states_expanded, loose_r.states_expanded);
  EXPECT_LE(loose_r.states_expanded, unbounded.states_expanded);
}

TEST(DpSchedulerBudget, PrunedRunIsStillOptimalWhenFeasible) {
  util::Rng rng(777);
  for (int trial = 0; trial < 10; ++trial) {
    testing::RandomDagOptions opts;
    opts.num_ops = 9;
    const graph::Graph g = testing::RandomDag(
        rng, opts, "prune" + std::to_string(trial));
    const DpResult unbounded = ScheduleDp(g);
    ASSERT_EQ(unbounded.status, DpStatus::kSolution);
    // Any budget >= µ* must reproduce exactly µ*.
    for (const double factor : {1.0, 1.1, 1.5}) {
      DpOptions options;
      options.budget_bytes = static_cast<std::int64_t>(
          static_cast<double>(unbounded.peak_bytes) * factor);
      const DpResult r = ScheduleDp(g, options);
      ASSERT_EQ(r.status, DpStatus::kSolution);
      EXPECT_EQ(r.peak_bytes, unbounded.peak_bytes);
    }
  }
}

// --- Resource-limit signalling ---

TEST(DpSchedulerLimits, StateCapReportsTimeout) {
  const graph::Graph g = models::MakeSwiftNetCellA();
  DpOptions options;
  options.max_states = 10;  // absurdly small
  const DpResult r = ScheduleDp(g, options);
  EXPECT_EQ(r.status, DpStatus::kTimeout);
  EXPECT_TRUE(r.schedule.empty());
}

TEST(DpSchedulerLimits, ZeroTimeoutReportsTimeout) {
  const graph::Graph g = models::MakeSwiftNetCellA();
  DpOptions options;
  options.step_timeout_seconds = 0.0;
  const DpResult r = ScheduleDp(g, options);
  EXPECT_EQ(r.status, DpStatus::kTimeout);
}

TEST(DpSchedulerDeath, EmptyGraphRejected) {
  const graph::Graph g("empty");
  EXPECT_DEATH(ScheduleDp(g), "empty graph");
}

// --- Aliasing-aware optimality: rewritten patterns in the state space ---

TEST(DpScheduler, OptimalWithSharedAccumulatorBuffers) {
  // Build a small rewritten-style graph by hand and cross-check against the
  // brute-force oracle, proving the DP's footprint accounting agrees with
  // the evaluator's on aliased buffers.
  graph::Graph g("accum_opt");
  graph::Node input;
  input.kind = graph::OpKind::kInput;
  input.shape = TensorShape{1, 16, 16, 2};
  const NodeId x0 = g.AddNode(input);
  const NodeId x1 = g.AddNode(input);
  const NodeId x2 = g.AddNode(input);

  graph::Node p0;
  p0.kind = graph::OpKind::kPartialConv2d;
  p0.conv = graph::ConvAttrs{1, 1, 1, 1, graph::Padding::kSame};
  p0.shape = TensorShape{1, 16, 16, 4};
  p0.inputs = {x0};
  p0.weight_in_channels = 6;
  p0.buffer = g.AddBuffer(p0.OutputBytes());
  const NodeId p0_id = g.AddNode(p0);

  graph::Node p1 = p0;
  p1.kind = graph::OpKind::kPartialConv2dAccum;
  p1.inputs = {p0_id, x1};
  p1.in_channel_offset = 2;
  const NodeId p1_id = g.AddNode(p1);

  graph::Node p2 = p1;
  p2.inputs = {p1_id, x2};
  p2.in_channel_offset = 4;
  const NodeId p2_id = g.AddNode(p2);

  graph::Node out;
  out.kind = graph::OpKind::kRelu;
  out.shape = p0.shape;
  out.inputs = {p2_id};
  g.AddNode(out);
  g.ValidateOrDie();

  const DpResult dp = ScheduleDp(g);
  ASSERT_EQ(dp.status, DpStatus::kSolution);
  const testing::BruteForceResult oracle =
      testing::BruteForceOptimalSchedule(g);
  EXPECT_EQ(dp.peak_bytes, oracle.peak_bytes);
  // Interleaving x_i with its partial keeps only one branch input alive:
  // peak = acc(4) + x(2) + x(2)... optimal: x0, p0 (x0 dies), x1, p1, ...
  // = 4 + 2 = 6KB at steady state, 2+4=6 at the spike. Plus the final relu
  // step: acc(4) + out(4) = 8KB.
  EXPECT_EQ(dp.peak_bytes, 8 * 1024);
}

// A sink-dominated exemplar: three spines each producing a large buffer
// consumed by six tiny sinks — 19 of 22 nodes are sinks or near-sinks. The
// early levels have nothing to prune; the one-step frontier floor must
// still cut in the tight mid-search levels without changing the plan.
TEST(DpSchedulerBound, FrontierFloorPrunesSinkDominatedGraphExactly) {
  GraphBuilder b("sinkdom");
  const NodeId in = b.Input(TensorShape{1, 16, 16, 2}, "in");
  for (int s = 0; s < 3; ++s) {
    const NodeId big = b.Conv1x1(in, 16 + 8 * s, "big" + std::to_string(s));
    for (int k = 0; k < 6; ++k) {
      (void)b.Conv1x1(big, 1 + (k % 3),
                      "sink" + std::to_string(s) + "_" + std::to_string(k));
    }
  }
  const graph::Graph g = std::move(b).Build();

  const DpResult off = ScheduleDp(g);
  ASSERT_EQ(off.status, DpStatus::kSolution);

  DpOptions options;
  options.incumbent_bytes =
      sched::PeakFootprint(g, sched::GreedyMemorySchedule(g));
  const DpResult r = ScheduleDp(g, options);
  ASSERT_EQ(r.status, DpStatus::kSolution);
  EXPECT_EQ(r.peak_bytes, off.peak_bytes);
  EXPECT_EQ(r.schedule, off.schedule);
  EXPECT_GT(r.pruned.frontier_floor, 0u);
}

// Search counts beyond the zoo: two rewritten single-segment RandWire cells
// whose exact searches are 13x and 44x the largest zoo segment's. Each runs
// a direct DP whose incumbent is the best of greedy, Kahn and a width-8
// beam. A change to the order in which the walk cuts, looks up and derives
// children must leave every count, the peak and the schedule as recorded.
struct RecordedSearch {
  int num_nodes;
  std::uint64_t seed;
  std::int64_t incumbent;
  std::int64_t peak;
  std::uint64_t states;
  std::uint64_t transitions;
  std::uint64_t pruned_incumbent;
  std::uint64_t pruned_floor;
  std::uint64_t max_level_states;
  sched::Schedule schedule;
};

TEST(DpSchedulerBound, RandWireSearchCountsAreAsRecorded) {
  const RecordedSearch cases[] = {
      {40, 1, 622592, 622592, 74591, 456903, 0, 39365, 8337,
       {0,  1,  2,  3,  9,  10, 11, 22, 4,  5,  37, 6,  8,  7,  12,
        16, 20, 27, 21, 23, 30, 32, 25, 34, 13, 36, 38, 40, 17, 24,
        28, 35, 19, 29, 33, 31, 26, 14, 15, 18, 39, 41, 42}},
      {48, 2, 688128, 589824, 259297, 1548505, 0, 124119, 22073,
       {0,  1,  2,  3,  4,  7,  9,  6,  8,  10, 12, 13, 14, 15, 17, 23, 24,
        25, 26, 36, 27, 37, 5,  42, 11, 16, 18, 19, 35, 41, 46, 21, 22, 29,
        28, 32, 34, 39, 43, 44, 30, 20, 31, 38, 40, 33, 45, 47, 48, 49, 50}},
  };
  for (const RecordedSearch& want : cases) {
    models::RandWireParams params;
    params.num_nodes = want.num_nodes;
    params.seed = want.seed;
    const graph::Graph g =
        rewrite::RewriteGraph(models::MakeRandWireCell(params)).graph;
    const std::string ctx = "N=" + std::to_string(want.num_nodes) +
                            " seed " + std::to_string(want.seed);
    sched::BeamOptions beam_options;
    beam_options.width = 8;
    const sched::BeamResult beam = sched::ScheduleBeam(g, beam_options);
    ASSERT_TRUE(beam.status.ok()) << ctx;
    DpOptions options;
    options.incumbent_bytes = std::min(
        {sched::PeakFootprint(g, sched::GreedyMemorySchedule(g)),
         sched::PeakFootprint(g, sched::KahnFifoSchedule(g)),
         beam.peak_bytes});
    ASSERT_EQ(options.incumbent_bytes, want.incumbent) << ctx;

    const DpResult r = ScheduleDp(g, options);
    ASSERT_EQ(r.status, DpStatus::kSolution) << ctx;
    EXPECT_EQ(r.peak_bytes, want.peak) << ctx;
    EXPECT_EQ(r.states_expanded, want.states) << ctx;
    EXPECT_EQ(r.transitions, want.transitions) << ctx;
    EXPECT_EQ(r.pruned.incumbent, want.pruned_incumbent) << ctx;
    EXPECT_EQ(r.pruned.frontier_floor, want.pruned_floor) << ctx;
    EXPECT_EQ(r.max_level_states, want.max_level_states) << ctx;
    EXPECT_EQ(r.schedule, want.schedule) << ctx;
  }
}

}  // namespace
}  // namespace serenity::core
