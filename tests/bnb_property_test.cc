// Randomized property suite for the branch-and-bound search core and the
// beam that seeds its incumbent. Over 1000 random DAGs it pins:
//
//  - DP bit-identity: peak AND reconstructed schedule are identical with
//    bound pruning off, with a heuristic incumbent (greedy/beam seed), and
//    with the tightest valid incumbent (µ* itself) — while never expanding
//    more states than the unpruned search. Strict-inequality pruning plus
//    the intrinsic relax tie-break make this exact (DESIGN.md
//    "Branch-and-bound over levels").
//  - Eager rule exactness: the walk schedules a memory-non-increasing ready
//    node as a state's only child (DESIGN.md "Eager non-increasing steps").
//    On random DAGs and on random cells, raw and rewritten, the reduced
//    DP's peak equals the unreduced exhaustive walk's (the reference with
//    `eager` off), with and without a greedy incumbent, and it never walks
//    more transitions.
//  - Beam vs reference: the beam's incremental frontier masks, eager
//    steps and partial_sort cut keep exactly the same `width` states with
//    the same tie-breaks as the fully sorted, from-scratch reference
//    (testing::ReferenceScheduleBeam), so schedules, peaks and expansion
//    counts coincide at every width, the default 64 included.
//  - Beam bound cut (BeamOptions::prune_above_bytes): at or above the
//    unbounded beam's peak the cut changes neither schedule nor peak and
//    never expands more; below it the beam reports NotFound.
//  - Soft-budget interplay: the Kahn-tightened incumbent inside
//    ScheduleWithSoftBudget changes neither the schedule nor the peak.
//  - The paper's nine cells through the full Pipeline: bound pruning off,
//    and on with a greedy-only, width-8 and width-256 seed, all give the
//    same exact schedule and peak.
//  - Shared analysis: one use table and one ExpansionTables, handed to
//    greedy, beam-8, the DP and soft budgeting in turn (as the Pipeline
//    hands them), give every result the graph-form calls give — the
//    tables are read, never consumed (DESIGN.md "One analysis per plan").
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>

#include "core/dp_scheduler.h"
#include "core/pipeline.h"
#include "core/soft_budget.h"
#include "core/state_store.h"
#include "graph/analysis.h"
#include "models/random_cell.h"
#include "models/zoo.h"
#include "rewrite/rewriter.h"
#include "sched/baselines.h"
#include "sched/beam.h"
#include "sched/schedule.h"
#include "testing/random_graphs.h"
#include "testing/reference_impls.h"
#include "util/rng.h"
#include "util/status.h"

namespace serenity::core {
namespace {

TEST(BnbProperty, DpBitIdenticalWithPruningOnRandomGraphs) {
  util::Rng rng(20260730);
  constexpr int kGraphs = 1000;
  for (int i = 0; i < kGraphs; ++i) {
    testing::RandomDagOptions opts;
    opts.num_ops = 4 + i % 13;
    opts.max_channels = 1 + i % 5;
    opts.extra_edge_p = (i % 4) * 0.25;
    opts.join_sinks = i % 3 != 0;
    const graph::Graph g =
        testing::RandomDag(rng, opts, "bnb" + std::to_string(i));
    const std::string ctx = "graph " + std::to_string(i);

    const DpResult off = ScheduleDp(g);
    ASSERT_EQ(off.status, DpStatus::kSolution) << ctx;

    // Heuristic incumbent, exactly as the pipeline seeds it.
    std::int64_t incumbent =
        sched::PeakFootprint(g, sched::GreedyMemorySchedule(g));
    sched::BeamOptions seed;
    seed.width = 4;
    incumbent = std::min(incumbent, sched::ScheduleBeam(g, seed).peak_bytes);
    ASSERT_GE(incumbent, off.peak_bytes) << ctx;  // achievable => valid

    DpOptions heuristic;
    heuristic.incumbent_bytes = incumbent;
    const DpResult on = ScheduleDp(g, heuristic);
    ASSERT_EQ(on.status, DpStatus::kSolution) << ctx;
    EXPECT_EQ(on.peak_bytes, off.peak_bytes) << ctx;
    EXPECT_EQ(on.schedule, off.schedule) << ctx;
    EXPECT_LE(on.states_expanded, off.states_expanded) << ctx;

    // Tightest valid incumbent: µ* itself maximizes pruning pressure and
    // must still be bit-identical.
    DpOptions tight;
    tight.incumbent_bytes = off.peak_bytes;
    const DpResult tightest = ScheduleDp(g, tight);
    ASSERT_EQ(tightest.status, DpStatus::kSolution) << ctx;
    EXPECT_EQ(tightest.peak_bytes, off.peak_bytes) << ctx;
    EXPECT_EQ(tightest.schedule, off.schedule) << ctx;
    EXPECT_LE(tightest.states_expanded, on.states_expanded) << ctx;

    // Soft-budget interplay: the meta-search with its Kahn-tightened
    // incumbent must land on the same schedule as without pruning.
    if (i % 11 == 0) {
      SoftBudgetOptions sb_off;
      sb_off.enable_bound_pruning = false;
      SoftBudgetOptions sb_on;
      sb_on.incumbent_bytes = incumbent;
      const SoftBudgetResult a = ScheduleWithSoftBudget(g, sb_off);
      const SoftBudgetResult b = ScheduleWithSoftBudget(g, sb_on);
      ASSERT_EQ(a.status, DpStatus::kSolution) << ctx;
      ASSERT_EQ(b.status, DpStatus::kSolution) << ctx;
      EXPECT_EQ(b.peak_bytes, a.peak_bytes) << ctx;
      EXPECT_EQ(b.schedule, a.schedule) << ctx;
    }

    if (::testing::Test::HasFailure()) return;  // one counterexample
  }
}

TEST(BnbProperty, PipelineBitIdenticalWithPruningOnPaperCells) {
  PipelineOptions off_options;
  off_options.enable_bound_pruning = false;
  const Pipeline off_pipeline(off_options);
  for (const models::BenchmarkCell& cell : models::AllBenchmarkCells()) {
    const graph::Graph g = cell.factory();
    const PipelineResult off = off_pipeline.Run(g);
    ASSERT_TRUE(off.status.ok()) << cell.name << ": " << off.status.ToString();
    EXPECT_EQ(off.quality, PlanQuality::kExact) << cell.name;
    EXPECT_EQ(off.states_pruned_by_bound, 0u) << cell.name;
    // The seed width only moves the incumbent, never the answer.
    for (const int width : {0, 8, 256}) {
      PipelineOptions on_options;
      on_options.incumbent_beam_width = width;
      const PipelineResult on = Pipeline(on_options).Run(g);
      const std::string ctx =
          cell.group + "/" + cell.name + " width " + std::to_string(width);
      ASSERT_TRUE(on.status.ok()) << ctx << ": " << on.status.ToString();
      EXPECT_EQ(on.quality, PlanQuality::kExact) << ctx;
      EXPECT_EQ(on.peak_bytes, off.peak_bytes) << ctx;
      EXPECT_EQ(on.schedule, off.schedule) << ctx;
    }
  }
}

TEST(BnbProperty, BeamMatchesReference) {
  util::Rng rng(424242);
  constexpr int kGraphs = 1000;
  const int widths[] = {1, 2, 3, 8, 64};
  for (int i = 0; i < kGraphs; ++i) {
    testing::RandomDagOptions opts;
    opts.num_ops = 4 + i % 12;
    opts.max_channels = 1 + i % 4;
    opts.extra_edge_p = (i % 5) * 0.2;
    opts.join_sinks = i % 2 == 0;
    const graph::Graph g =
        testing::RandomDag(rng, opts, "beam" + std::to_string(i));
    sched::BeamOptions options;
    options.width = widths[i % 5];
    const sched::BeamResult beam = sched::ScheduleBeam(g, options);
    const sched::BeamResult reference =
        testing::ReferenceScheduleBeam(g, options);
    const std::string ctx =
        "graph " + std::to_string(i) + " width " +
        std::to_string(options.width);
    EXPECT_EQ(beam.peak_bytes, reference.peak_bytes) << ctx;
    EXPECT_EQ(beam.schedule, reference.schedule) << ctx;
    EXPECT_EQ(beam.states_expanded, reference.states_expanded) << ctx;
    if (::testing::Test::HasFailure()) return;  // one counterexample
  }
}

// The eager rule against the unreduced exhaustive walk
// (ReferenceScheduleBeam with `eager` off at a width no level reaches).
// The references count walked (state, node) pairs as
// DpResult::transitions does.
void ExpectEagerRuleExact(const graph::Graph& g, const std::string& ctx) {
  sched::BeamOptions exhaustive;
  exhaustive.width = std::numeric_limits<int>::max();
  const sched::BeamResult unreduced =
      testing::ReferenceScheduleBeam(g, exhaustive, /*eager=*/false);
  const sched::BeamResult reduced =
      testing::ReferenceScheduleBeam(g, exhaustive);
  const DpResult dp = ScheduleDp(g);
  ASSERT_EQ(dp.status, DpStatus::kSolution) << ctx;
  EXPECT_EQ(dp.peak_bytes, unreduced.peak_bytes) << ctx;
  EXPECT_EQ(sched::PeakFootprint(g, dp.schedule), dp.peak_bytes) << ctx;
  EXPECT_LE(dp.transitions, unreduced.states_expanded) << ctx;
  EXPECT_LE(dp.states_expanded, unreduced.states_expanded) << ctx;
  // The production walk is the plainly written reduced one.
  EXPECT_EQ(dp.schedule, reduced.schedule) << ctx;
  EXPECT_EQ(dp.transitions, reduced.states_expanded) << ctx;

  // With a greedy incumbent the floor cut runs beside the rule.
  DpOptions seeded;
  seeded.incumbent_bytes =
      sched::PeakFootprint(g, sched::GreedyMemorySchedule(g));
  const DpResult pruned = ScheduleDp(g, seeded);
  ASSERT_EQ(pruned.status, DpStatus::kSolution) << ctx;
  EXPECT_EQ(pruned.peak_bytes, unreduced.peak_bytes) << ctx;
  EXPECT_EQ(pruned.schedule, dp.schedule) << ctx;
}

TEST(BnbProperty, EagerRuleKeepsTheOptimalPeak) {
  util::Rng rng(20261018);
  for (int i = 0; i < 400; ++i) {
    testing::RandomDagOptions opts;
    opts.num_ops = 4 + i % 21;
    opts.max_channels = 1 + i % 5;
    opts.extra_edge_p = (i % 4) * 0.25;
    opts.join_sinks = i % 3 != 0;
    ExpectEagerRuleExact(
        testing::RandomDag(rng, opts, "eager" + std::to_string(i)),
        "graph " + std::to_string(i));
    if (::testing::Test::HasFailure()) return;  // one counterexample
  }
  // Random cells, raw and rewritten: the rewrite's partial convs share one
  // accumulator buffer, so a step may allocate nothing.
  for (int seed = 0; seed < 40; ++seed) {
    models::RandomCellParams params;
    params.seed = static_cast<std::uint64_t>(seed) * 2654435761u + 5;
    params.num_intermediates = 4 + seed % 5;
    params.concat_branches = seed % 3 == 0 ? 0 : 2 + seed % 3;
    params.depthwise_block = seed % 2 == 0;
    params.spatial = 4;
    const graph::Graph raw = models::MakeRandomCellNetwork(params);
    const std::string ctx = "cell " + std::to_string(seed);
    ExpectEagerRuleExact(raw, ctx + " raw");
    ExpectEagerRuleExact(rewrite::RewriteGraph(raw).graph, ctx + " rewritten");
    if (::testing::Test::HasFailure()) return;  // one counterexample
  }
}

// Every stage's table form against its graph form, with one analysis
// shared by all of them in the Pipeline's order.
void ExpectSharedTablesMatch(const graph::Graph& g, const std::string& ctx) {
  const graph::BufferUseTable table = graph::BufferUseTable::Build(g);
  const ExpansionTables tables(g, table, graph::BuildAdjacency(g));

  EXPECT_EQ(sched::GreedyMemorySchedule(g, table),
            sched::GreedyMemorySchedule(g))
      << ctx;

  sched::BeamOptions beam_options;
  beam_options.width = 8;
  const sched::BeamResult beam = sched::ScheduleBeam(g, tables, beam_options);
  const sched::BeamResult beam_ref = sched::ScheduleBeam(g, beam_options);
  ASSERT_TRUE(beam.status.ok()) << ctx;
  EXPECT_EQ(beam.schedule, beam_ref.schedule) << ctx;
  EXPECT_EQ(beam.peak_bytes, beam_ref.peak_bytes) << ctx;
  EXPECT_EQ(beam.states_expanded, beam_ref.states_expanded) << ctx;

  DpOptions dp_options;
  dp_options.incumbent_bytes = beam.peak_bytes;
  const DpResult dp = ScheduleDp(tables, dp_options);
  const DpResult dp_ref = ScheduleDp(g, dp_options);
  ASSERT_EQ(dp.status, DpStatus::kSolution) << ctx;
  EXPECT_EQ(dp.schedule, dp_ref.schedule) << ctx;
  EXPECT_EQ(dp.peak_bytes, dp_ref.peak_bytes) << ctx;
  EXPECT_EQ(dp.states_expanded, dp_ref.states_expanded) << ctx;
  EXPECT_EQ(dp.transitions, dp_ref.transitions) << ctx;
  EXPECT_EQ(dp.states_pruned_by_bound, dp_ref.states_pruned_by_bound) << ctx;
  EXPECT_EQ(dp.max_level_states, dp_ref.max_level_states) << ctx;

  SoftBudgetOptions sb_options;
  sb_options.incumbent_bytes = beam.peak_bytes;
  const SoftBudgetResult sb =
      ScheduleWithSoftBudget(g, table, tables, sb_options);
  const SoftBudgetResult sb_ref = ScheduleWithSoftBudget(g, sb_options);
  ASSERT_EQ(sb.status, DpStatus::kSolution) << ctx;
  EXPECT_EQ(sb.schedule, sb_ref.schedule) << ctx;
  EXPECT_EQ(sb.peak_bytes, sb_ref.peak_bytes) << ctx;
  EXPECT_EQ(sb.tau_max, sb_ref.tau_max) << ctx;
  EXPECT_EQ(sb.attempts.size(), sb_ref.attempts.size()) << ctx;
  EXPECT_EQ(sb.TotalStates(), sb_ref.TotalStates()) << ctx;
  EXPECT_EQ(sb.TotalPrunedByBound(), sb_ref.TotalPrunedByBound()) << ctx;
  // The last reader sees the same tables the first one did.
  EXPECT_EQ(sb.peak_bytes, dp.peak_bytes) << ctx;
}

TEST(BnbProperty, SharedTablesAreReusedNotConsumed) {
  util::Rng rng(20261021);
  for (int i = 0; i < 300; ++i) {
    testing::RandomDagOptions opts;
    opts.num_ops = 4 + i % 13;
    opts.max_channels = 1 + i % 5;
    opts.extra_edge_p = (i % 4) * 0.25;
    opts.join_sinks = i % 3 != 0;
    const graph::Graph raw =
        testing::RandomDag(rng, opts, "shared" + std::to_string(i));
    const std::string ctx = "graph " + std::to_string(i);
    ExpectSharedTablesMatch(raw, ctx + " raw");
    ExpectSharedTablesMatch(rewrite::RewriteGraph(raw).graph,
                            ctx + " rewritten");
    if (::testing::Test::HasFailure()) return;  // one counterexample
  }
}

TEST(BnbProperty, BeamBoundCutKeepsTheAnswerOrReportsNotFound) {
  // The cut only drops states whose peak already exceeds the bound, and
  // those rank below every state within it, so each level keeps the same
  // states within the bound as the unbounded beam's.
  util::Rng rng(20261017);
  constexpr int kGraphs = 1000;
  for (int i = 0; i < kGraphs; ++i) {
    testing::RandomDagOptions opts;
    opts.num_ops = 4 + i % 13;
    opts.max_channels = 1 + i % 5;
    opts.extra_edge_p = (i % 4) * 0.25;
    opts.join_sinks = i % 3 != 0;
    const graph::Graph g =
        testing::RandomDag(rng, opts, "cut" + std::to_string(i));
    const std::int64_t greedy =
        sched::PeakFootprint(g, sched::GreedyMemorySchedule(g));
    for (const int width : {1, 2, 3, 8, 64}) {
      sched::BeamOptions options;
      options.width = width;
      const sched::BeamResult unbounded = sched::ScheduleBeam(g, options);
      ASSERT_TRUE(unbounded.status.ok());
      for (const std::int64_t bound :
           {greedy, unbounded.peak_bytes, unbounded.peak_bytes - 1}) {
        options.prune_above_bytes = bound;
        const sched::BeamResult cut = sched::ScheduleBeam(g, options);
        const std::string ctx = "graph " + std::to_string(i) + " width " +
                                std::to_string(width) + " bound " +
                                std::to_string(bound);
        if (unbounded.peak_bytes <= bound) {
          ASSERT_TRUE(cut.status.ok())
              << ctx << ": " << cut.status.ToString();
          EXPECT_EQ(cut.schedule, unbounded.schedule) << ctx;
          EXPECT_EQ(cut.peak_bytes, unbounded.peak_bytes) << ctx;
          EXPECT_LE(cut.states_expanded, unbounded.states_expanded) << ctx;
        } else {
          EXPECT_EQ(cut.status.code(), util::StatusCode::kNotFound) << ctx;
          EXPECT_TRUE(cut.schedule.empty()) << ctx;
        }
      }
    }
    if (::testing::Test::HasFailure()) return;  // one counterexample
  }
}

}  // namespace
}  // namespace serenity::core
