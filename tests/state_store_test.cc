// Tests for the flat-arena state store (core/state_store.h) and the
// refactored schedulers running on it: unit coverage of StateLevel /
// SignatureHasher / ExpansionTables, the beam's memory-budget charging,
// plus the randomized property suite required by the refactor —
// bit-identical peaks and valid topological orders versus the brute-force
// oracle on random DAGs, across the kNoSolution / kTimeout paths.
#include "core/state_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "core/dp_scheduler.h"
#include "graph/analysis.h"
#include "graph/builder.h"
#include "rewrite/rewriter.h"
#include "sched/baselines.h"
#include "sched/beam.h"
#include "sched/schedule.h"
#include "testing/brute_force.h"
#include "testing/random_graphs.h"
#include "util/bitset.h"
#include "util/cancel_token.h"
#include "util/memory_budget.h"
#include "util/rng.h"
#include "util/status.h"

namespace serenity::core {
namespace {

// ---------------------------------------------------------------- StateLevel

// Find, then Relax or Insert, as the walk does; true iff a state was
// created.
bool InsertOrRelax(StateLevel& level, const std::uint64_t* sig,
                   const std::uint64_t* frontier, std::uint64_t hash,
                   std::int64_t footprint, std::int64_t peak,
                   std::uint64_t tie_key, std::int32_t prev_index,
                   std::int32_t last_node) {
  const StateLevel::Probe probe = level.Find(sig, hash);
  if (probe.state >= 0) {
    level.Relax(probe.state, peak, tie_key, prev_index, last_node);
    return false;
  }
  level.Insert(probe, sig, frontier, hash, footprint, peak, tie_key,
               prev_index, last_node);
  return true;
}

TEST(SignatureHasher, IsDeterministicAndIncremental) {
  const SignatureHasher a(64);
  const SignatureHasher b(64);
  for (std::size_t u = 0; u < 64; ++u) EXPECT_EQ(a.key(u), b.key(u));
  // hash({3, 7}) built in either insertion order is identical.
  const std::uint64_t h37 =
      SignatureHasher::kEmptyHash ^ a.key(3) ^ a.key(7);
  const std::uint64_t h73 =
      SignatureHasher::kEmptyHash ^ a.key(7) ^ a.key(3);
  EXPECT_EQ(h37, h73);
  EXPECT_NE(h37, SignatureHasher::kEmptyHash);
}

TEST(StateLevel, InsertDedupAndRelax) {
  StateLevel level;
  level.Init(/*words_per_state=*/2, /*expected_states=*/4);
  const std::uint64_t sig_a[2] = {0b101, 0};
  const std::uint64_t sig_b[2] = {0b011, 0};
  const std::uint64_t mask_a[2] = {0b1010, 1};
  const std::uint64_t mask_b[2] = {0b0100, 2};
  const std::uint64_t other[2] = {~std::uint64_t{0}, ~std::uint64_t{0}};
  EXPECT_TRUE(InsertOrRelax(level, sig_a, mask_a, 111, 10, 50, 9, 0, 2));
  EXPECT_TRUE(InsertOrRelax(level, sig_b, mask_b, 222, 20, 40, 9, 1, 1));
  // Duplicate signature with a worse peak: ignored.
  EXPECT_FALSE(InsertOrRelax(level, sig_a, other, 111, 10, 60, 9, 3, 0));
  // Duplicate with a better peak: relaxes peak and back-pointer, but the
  // frontier mask is written on creation only.
  EXPECT_FALSE(InsertOrRelax(level, sig_a, other, 111, 10, 30, 9, 4, 0));
  // Equal peak: the lower intrinsic tie key takes the back-pointer, a
  // higher one is ignored.
  EXPECT_FALSE(InsertOrRelax(level, sig_a, other, 111, 10, 30, 3, 5, 0));
  EXPECT_FALSE(InsertOrRelax(level, sig_a, other, 111, 10, 30, 7, 6, 0));
  // A lookup names the held state; an absent signature gets an empty slot.
  EXPECT_EQ(level.Find(sig_b, 222).state, 1);
  EXPECT_EQ(level.Find(other, 333).state, -1);
  level.Seal();
  ASSERT_EQ(level.size(), 2u);
  EXPECT_EQ(level.footprint(0), 10);
  EXPECT_EQ(level.peak(0), 30);
  EXPECT_EQ(level.recon(0).prev_index, 5);
  EXPECT_EQ(level.recon(0).last_node, 0);
  EXPECT_EQ(level.peak(1), 40);
  EXPECT_TRUE(
      util::SpanEqual(level.signature(0), sig_a, level.words_per_state()));
  EXPECT_TRUE(
      util::SpanEqual(level.signature(1), sig_b, level.words_per_state()));
  EXPECT_TRUE(
      util::SpanEqual(level.frontier(0), mask_a, level.words_per_state()));
  EXPECT_TRUE(
      util::SpanEqual(level.frontier(1), mask_b, level.words_per_state()));
}

TEST(StateLevel, GrowsPastInitialCapacityWithoutLosingStates) {
  StateLevel level;
  level.Init(/*words_per_state=*/1, /*expected_states=*/1);
  const SignatureHasher hasher(64);
  for (std::size_t u = 0; u < 64; ++u) {
    const std::uint64_t sig[1] = {std::uint64_t{1} << u};
    EXPECT_TRUE(InsertOrRelax(level, sig, sig, hasher.key(u),
                              static_cast<std::int64_t>(u), 0, 0, -1,
                              static_cast<std::int32_t>(u)));
  }
  level.Seal();
  ASSERT_EQ(level.size(), 64u);
  // Every state survived the rehashes with its payload intact.
  std::vector<bool> seen(64, false);
  for (std::size_t i = 0; i < 64; ++i) {
    const std::size_t u =
        static_cast<std::size_t>(level.recon(i).last_node);
    EXPECT_EQ(level.signature(i)[0], std::uint64_t{1} << u);
    EXPECT_EQ(level.footprint(i), static_cast<std::int64_t>(u));
    seen[u] = true;
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

TEST(StateLevel, SelectCompactsInGivenOrder) {
  StateLevel level;
  level.Init(1, 4);
  const SignatureHasher hasher(8);
  for (std::size_t u = 0; u < 4; ++u) {
    const std::uint64_t sig[1] = {std::uint64_t{1} << u};
    InsertOrRelax(level, sig, sig, hasher.key(u),
                  static_cast<std::int64_t>(u),
                  static_cast<std::int64_t>(10 + u), 0, -1,
                  static_cast<std::int32_t>(u));
  }
  level.Seal();
  const StateLevel pruned = level.Select({3, 1});
  ASSERT_EQ(pruned.size(), 2u);
  EXPECT_EQ(pruned.recon(0).last_node, 3);
  EXPECT_EQ(pruned.peak(0), 13);
  EXPECT_EQ(pruned.recon(1).last_node, 1);
  EXPECT_EQ(pruned.hash(1), hasher.key(1));
  EXPECT_EQ(pruned.frontier(0)[0], std::uint64_t{1} << 3);
  EXPECT_EQ(pruned.frontier(1)[0], std::uint64_t{1} << 1);
}

TEST(StateLevel, EstimateBytesMatchesResidentBytesAfterInit) {
  // The DP charges EstimateBytes to its memory budget before Init grows a
  // level, so the estimate must be exactly what Init reserves — every
  // arena, frontier masks included.
  for (const std::size_t words : {std::size_t{1}, std::size_t{2}}) {
    for (const std::size_t expected :
         {std::size_t{1}, std::size_t{64}, std::size_t{1000}}) {
      StateLevel level;
      level.Init(words, expected);
      EXPECT_EQ(StateLevel::EstimateBytes(words, expected),
                level.ResidentBytes())
          << "words " << words << " expected " << expected;
    }
  }
}

TEST(StateLevel, TakeReconAndReleaseReturnsAllRecords) {
  StateLevel level;
  level.Init(1, 4);
  const std::uint64_t s0[1] = {1};
  const std::uint64_t s1[1] = {2};
  InsertOrRelax(level, s0, s1, 11, 0, 0, 0, 7, 0);
  InsertOrRelax(level, s1, s0, 22, 0, 0, 0, 8, 1);
  level.Seal();
  const std::vector<ReconRecord> recon = level.TakeReconAndRelease();
  ASSERT_EQ(recon.size(), 2u);
  EXPECT_EQ(recon[0].prev_index, 7);
  EXPECT_EQ(recon[1].prev_index, 8);
}

// ------------------------------------------------------------ beam budget

TEST(BeamBudget, ChargesLikeTheDpAndUnwinds) {
  // 24 ops at width 4: the levels outgrow the width, so the governed run
  // goes through the cut on most levels.
  util::Rng rng(71);
  testing::RandomDagOptions opts;
  opts.num_ops = 24;
  const graph::Graph g = testing::RandomDag(rng, opts, "beam_budget");
  sched::BeamOptions options;
  options.width = 4;
  const sched::BeamResult ungoverned = sched::ScheduleBeam(g, options);
  ASSERT_TRUE(ungoverned.status.ok());

  // Below the fixed bytes (expansion tables + two Zobrist key streams) the
  // beam fails before building a level.
  const ExpansionTables tables(g, graph::BufferUseTable::Build(g),
                               graph::BuildAdjacency(g));
  const std::int64_t fixed_bytes =
      tables.ResidentBytes() +
      static_cast<std::int64_t>(2 * g.num_nodes() * 8);
  util::MemoryBudget starved(fixed_bytes - 1);
  options.memory_budget = &starved;
  const sched::BeamResult denied = sched::ScheduleBeam(g, options);
  EXPECT_EQ(denied.status.code(), util::StatusCode::kResourceExhausted);
  EXPECT_TRUE(denied.schedule.empty());
  EXPECT_EQ(starved.used_bytes(), 0);

  // An ample budget changes nothing and is fully refunded.
  util::MemoryBudget ample(std::int64_t{1} << 30);
  options.memory_budget = &ample;
  const sched::BeamResult governed = sched::ScheduleBeam(g, options);
  ASSERT_TRUE(governed.status.ok());
  EXPECT_EQ(governed.schedule, ungoverned.schedule);
  EXPECT_EQ(governed.peak_bytes, ungoverned.peak_bytes);
  EXPECT_EQ(governed.states_expanded, ungoverned.states_expanded);
  EXPECT_GT(ample.peak_bytes(), fixed_bytes);
  EXPECT_EQ(ample.used_bytes(), 0);

  // A token that already fired stops the governed beam at its first poll:
  // no schedule, and every charge is refunded.
  util::CancelToken fired;
  fired.Cancel();
  options.cancel = &fired;
  const sched::BeamResult cancelled = sched::ScheduleBeam(g, options);
  EXPECT_EQ(cancelled.status.code(), util::StatusCode::kCancelled);
  EXPECT_TRUE(cancelled.schedule.empty());
  EXPECT_EQ(ample.used_bytes(), 0);
}

// ----------------------------------------------------------- ExpansionTables

TEST(ExpansionTables, FrontierMatchesDirectComputation) {
  // 20 nodes fit one signature word; 70 ops span two, like DARTS's 67
  // nodes, so the derived mask crosses a word boundary.
  for (const int num_ops : {20, 70}) {
    util::Rng rng(31);
    testing::RandomDagOptions opts;
    opts.num_ops = num_ops;
    const graph::Graph g = testing::RandomDag(rng, opts, "frontier");
    const graph::BufferUseTable table = graph::BufferUseTable::Build(g);
    const graph::AdjacencyBitsets adjacency = graph::BuildAdjacency(g);
    const ExpansionTables tables(g, table, adjacency);
    const std::size_t n = static_cast<std::size_t>(g.num_nodes());
    const std::size_t words = tables.words_per_state();
    if (num_ops > 64) {
      ASSERT_GE(words, 2u);
    }

    // Random schedulable prefixes: schedule a random ready node at a time
    // and cross-check, after every step, the direct frontier, the mask
    // computed from scratch and the mask derived step by step from the
    // root's (the schedulers' stored per-state mask).
    util::Bitset64 scheduled(n);
    std::vector<std::int32_t> frontier;
    std::vector<std::int32_t> newly_ready;
    std::vector<std::uint64_t> derived(words);
    std::vector<std::uint64_t> scratch(words);
    tables.FrontierMask(scheduled.words(), derived.data());
    for (std::size_t step = 0; step <= n; ++step) {
      const std::string ctx = std::to_string(num_ops) + " ops, after " +
                              std::to_string(step) + " steps";
      std::vector<std::int32_t> expected;
      for (std::size_t u = 0; u < n; ++u) {
        if (!scheduled.Test(u) && adjacency.preds[u].IsSubsetOf(scheduled)) {
          expected.push_back(static_cast<std::int32_t>(u));
        }
      }
      frontier.clear();
      tables.FrontierMask(scheduled.words(), scratch.data());
      util::SpanAppendSetBits(scratch.data(), words, &frontier);
      ASSERT_EQ(frontier, expected) << ctx;
      std::vector<std::int32_t> from_mask;
      util::SpanAppendSetBits(derived.data(), words, &from_mask);
      ASSERT_EQ(from_mask, expected) << ctx;
      if (step == n) break;
      ASSERT_FALSE(frontier.empty());
      const std::int32_t u = frontier[static_cast<std::size_t>(
          rng.NextInt(0, static_cast<int>(frontier.size()) - 1))];
      scheduled.Set(static_cast<std::size_t>(u));
      tables.ChildFrontier(derived.data(), scheduled.words(), u,
                           scratch.data(), &newly_ready);
      // The newly ready nodes are exactly the child's frontier minus the
      // parent's.
      std::vector<std::uint64_t> diff(words);
      for (std::size_t w = 0; w < words; ++w) {
        diff[w] = scratch[w] & ~derived[w];
      }
      std::vector<std::int32_t> joined;
      util::SpanAppendSetBits(diff.data(), words, &joined);
      std::sort(newly_ready.begin(), newly_ready.end());
      ASSERT_EQ(newly_ready, joined) << ctx;
      derived = scratch;
    }
    EXPECT_EQ(scheduled.Count(), n);
  }
}

// Walks `schedule` through StepPeak and FreedBytes and checks every step
// against the reference evaluator. Also checks that every walk reaching a
// signature reaches it with the same footprint, across all the walks that
// share `footprint_of`: the DP relaxes a child it already holds without
// deriving it again, which is exact only because of this.
void ExpectStepsMatchEvaluator(
    const graph::Graph& g, const graph::BufferUseTable& table,
    const ExpansionTables& tables, const sched::Schedule& schedule,
    std::map<std::vector<std::uint64_t>, std::int64_t>* footprint_of,
    const std::string& ctx) {
  const sched::FootprintResult eval =
      sched::EvaluateFootprint(g, table, schedule);
  util::Bitset64 scheduled(static_cast<std::size_t>(g.num_nodes()));
  std::int64_t footprint = 0;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const std::int32_t u = static_cast<std::int32_t>(schedule[i]);
    const std::int64_t step_peak =
        tables.StepPeak(scheduled.words(), u, footprint);
    ASSERT_EQ(step_peak, eval.peak_at_step[i]) << ctx << " step " << i;
    footprint = step_peak - tables.FreedBytes(scheduled.words(), u);
    ASSERT_EQ(footprint, eval.footprint_after_step[i]) << ctx << " step " << i;
    scheduled.Set(static_cast<std::size_t>(u));
    const auto [it, inserted] = footprint_of->emplace(
        std::vector<std::uint64_t>(scheduled.words(),
                                   scheduled.words() + scheduled.num_words()),
        footprint);
    ASSERT_EQ(it->second, footprint) << ctx << " step " << i;
  }
}

TEST(ExpansionTables, StepPeakAndFreedBytesMatchScheduleEvaluator) {
  // 200 random DAGs, each raw and rewritten: the rewrite's partial convs
  // share one accumulator buffer, so a step may allocate nothing. Each is
  // walked along the DP's schedule and three random topological orders.
  util::Rng rng(57);
  int shared_accumulator_graphs = 0;
  for (int i = 0; i < 200; ++i) {
    testing::RandomDagOptions opts;
    opts.num_ops = 6 + i % 19;
    opts.max_channels = 1 + i % 5;
    opts.extra_edge_p = 0.25 + (i % 4) * 0.25;
    opts.join_sinks = i % 3 != 0;
    const graph::Graph raw =
        testing::RandomDag(rng, opts, "steps" + std::to_string(i));
    const graph::Graph rewritten = rewrite::RewriteGraph(raw).graph;
    for (const graph::Graph* g : {&raw, &rewritten}) {
      const std::string ctx = "graph " + std::to_string(i) +
                              (g == &raw ? " raw" : " rewritten");
      const graph::BufferUseTable table = graph::BufferUseTable::Build(*g);
      const ExpansionTables tables(*g, table, graph::BuildAdjacency(*g));
      if (std::any_of(table.buffers.begin(), table.buffers.end(),
                      [](const graph::BufferUse& use) {
                        return use.writers.size() >= 2;
                      })) {
        ++shared_accumulator_graphs;
      }
      std::map<std::vector<std::uint64_t>, std::int64_t> footprint_of;
      const DpResult dp = ScheduleDp(*g);
      ASSERT_EQ(dp.status, DpStatus::kSolution) << ctx;
      ExpectStepsMatchEvaluator(*g, table, tables, dp.schedule, &footprint_of,
                                ctx + " dp order");
      for (int order = 0; order < 3; ++order) {
        ExpectStepsMatchEvaluator(
            *g, table, tables, sched::RandomTopologicalSchedule(*g, rng),
            &footprint_of, ctx + " random order " + std::to_string(order));
      }
      if (::testing::Test::HasFailure()) return;  // one counterexample
    }
  }
  EXPECT_GT(shared_accumulator_graphs, 20);
}

// ------------------------------------- randomized end-to-end property suite

class StateStoreProperty : public ::testing::TestWithParam<int> {};

TEST_P(StateStoreProperty, DpMatchesOracle) {
  const int seed = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(seed) * 6271 + 11);
  testing::RandomDagOptions opts;
  opts.num_ops = 8 + seed % 6;  // up to 14 ops: oracle-tractable
  const graph::Graph g =
      testing::RandomDag(rng, opts, "prop" + std::to_string(seed));
  const testing::BruteForceResult oracle =
      testing::BruteForceOptimalSchedule(g);

  const DpOptions options;
  const DpResult dp = ScheduleDp(g, options);
  ASSERT_EQ(dp.status, DpStatus::kSolution);
  EXPECT_TRUE(sched::IsTopologicalOrder(g, dp.schedule));
  // Bit-identical peaks versus the exhaustive oracle, and the returned
  // schedule really achieves the claimed peak.
  EXPECT_EQ(dp.peak_bytes, oracle.peak_bytes) << "seed " << seed;
  EXPECT_EQ(dp.peak_bytes, sched::PeakFootprint(g, dp.schedule));

  // kNoSolution path: one byte under the optimum prunes every schedule.
  DpOptions tight = options;
  tight.budget_bytes = dp.peak_bytes - 1;
  EXPECT_EQ(ScheduleDp(g, tight).status, DpStatus::kNoSolution);

  // Budget exactly at the optimum still finds it.
  DpOptions exact = options;
  exact.budget_bytes = dp.peak_bytes;
  const DpResult bounded = ScheduleDp(g, exact);
  ASSERT_EQ(bounded.status, DpStatus::kSolution);
  EXPECT_EQ(bounded.peak_bytes, oracle.peak_bytes);

  // kTimeout path: a state cap the search must exceed.
  if (dp.states_expanded > 2) {
    DpOptions capped = options;
    capped.max_states = 2;
    EXPECT_EQ(ScheduleDp(g, capped).status, DpStatus::kTimeout);
  }

  // Beam on the same store: always valid; optimal when the beam is wider
  // than every DP level (states_expanded bounds every level's width).
  sched::BeamOptions beam_options;
  beam_options.width = static_cast<int>(dp.states_expanded) + 1;
  const sched::BeamResult beam = sched::ScheduleBeam(g, beam_options);
  EXPECT_TRUE(sched::IsTopologicalOrder(g, beam.schedule));
  EXPECT_EQ(beam.peak_bytes, oracle.peak_bytes);
  EXPECT_EQ(beam.peak_bytes, sched::PeakFootprint(g, beam.schedule));
}

INSTANTIATE_TEST_SUITE_P(RandomDags, StateStoreProperty,
                         ::testing::Range(0, 25),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "seed" + std::to_string(info.param);
                         });

TEST(StateStore, DpScheduleIsValidOnDagBeyondTheOracle) {
  // Past the brute-force oracle's reach (24 ops) the DP's schedule must
  // still be a topological order that achieves the reported peak.
  util::Rng rng(97);
  testing::RandomDagOptions opts;
  opts.num_ops = 24;
  const graph::Graph g = testing::RandomDag(rng, opts, "beyond_oracle");
  const DpResult dp = ScheduleDp(g);
  ASSERT_EQ(dp.status, DpStatus::kSolution);
  EXPECT_TRUE(sched::IsTopologicalOrder(g, dp.schedule));
  EXPECT_EQ(dp.peak_bytes, sched::PeakFootprint(g, dp.schedule));
}

TEST(StateStore, ReserveHintClampsAgainstStateCap) {
  // 2x growth below the cap...
  EXPECT_EQ(NextLevelReserveHint(1000, 4'000'000), 2000u);
  // ...floored at 64...
  EXPECT_EQ(NextLevelReserveHint(3, 4'000'000), 64u);
  // ...and clamped so a huge sealed level cannot pre-allocate an arena
  // beyond the search cap (+1 leaves room for the state tripping it).
  EXPECT_EQ(NextLevelReserveHint(3'000'000, 100'000), 100'001u);
  EXPECT_EQ(NextLevelReserveHint(1u << 20, 1u << 19), (1u << 19) + 1);
  // A sub-64 cap keeps the floor (the arena must hold at least one state).
  EXPECT_EQ(NextLevelReserveHint(1000, 10), 64u);
}

}  // namespace
}  // namespace serenity::core
