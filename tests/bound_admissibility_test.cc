// Bound-audit suite for the branch-and-bound pruning machinery. Ground truth
// is a brute-force enumeration of the full prefix lattice with a backward
// suffix DP:
//
//     suffix(S) = min over completions of S of the max transient step
//               = min over edges S->C of max(step_peak(S->C), suffix(C)),
//
// the tightest peak any continuation of S can achieve. A bound is
// *admissible* iff it never exceeds that truth — pruning on an inadmissible
// bound could cut the optimal schedule. Over 1000 small random DAGs this
// suite pins the search's one-step frontier-alloc floor
// (ComputeFrontierAllocs / ChildNextAllocFloor) against that oracle, and
// its EXACTNESS against per-child recomputation — exactness is what keeps
// duplicate candidates agreeing, hence determinism. (The step-peak cut is
// admissible by definition: a completion through that step peaks at least
// that high.) It also pins the lemma behind the DP's eager rule: a step
// that does not grow the footprint never raises the best completion.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/state_store.h"
#include "testing/random_graphs.h"
#include "util/bitset.h"
#include "util/rng.h"

namespace serenity::core {
namespace {

constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 2;

// Full prefix lattice of a graph: per state its signature, running
// footprint, outgoing edges, and the exact suffix peak defined above.
struct Lattice {
  struct Edge {
    std::int32_t child;
    std::int64_t step_peak;
  };
  std::vector<std::vector<std::uint64_t>> sig;
  std::vector<std::int64_t> footprint;
  std::vector<std::uint64_t> hash;  // XOR of SignatureHasher keys, DP-style
  std::vector<std::vector<Edge>> edges;
  std::vector<std::vector<std::int32_t>> level_states;
  std::vector<std::int64_t> suffix;
  std::unordered_map<std::uint64_t, std::vector<std::int32_t>> by_hash;

  std::int32_t Find(std::uint64_t h, const std::uint64_t* s,
                    std::size_t words) const {
    auto it = by_hash.find(h);
    if (it == by_hash.end()) return -1;
    for (const std::int32_t i : it->second) {
      if (std::equal(s, s + words, sig[static_cast<std::size_t>(i)].data())) {
        return i;
      }
    }
    return -1;
  }
};

Lattice EnumerateLattice(const ExpansionTables& tables,
                         const SignatureHasher& hasher) {
  const std::size_t n = tables.num_nodes();
  const std::size_t words = tables.words_per_state();
  Lattice lat;
  lat.level_states.resize(n + 1);
  lat.sig.push_back(std::vector<std::uint64_t>(words, 0));
  lat.footprint.push_back(0);
  lat.hash.push_back(0);
  lat.edges.emplace_back();
  lat.by_hash[0].push_back(0);
  lat.level_states[0].push_back(0);
  std::vector<std::int32_t> frontier;
  std::vector<std::uint64_t> mask(words);
  for (std::size_t lvl = 0; lvl < n; ++lvl) {
    for (const std::int32_t s : lat.level_states[lvl]) {
      const std::vector<std::uint64_t> sig = lat.sig[static_cast<std::size_t>(s)];
      const std::int64_t foot = lat.footprint[static_cast<std::size_t>(s)];
      const std::uint64_t h = lat.hash[static_cast<std::size_t>(s)];
      frontier.clear();
      tables.FrontierMask(sig.data(), mask.data());
      util::SpanAppendSetBits(mask.data(), words, &frontier);
      for (const std::int32_t u : frontier) {
        const std::int64_t step_peak = tables.StepPeak(sig.data(), u, foot);
        const std::int64_t child_foot =
            step_peak - tables.FreedBytes(sig.data(), u);
        std::vector<std::uint64_t> child = sig;
        util::SpanSetBit(child.data(), static_cast<std::size_t>(u));
        const std::uint64_t ch =
            h ^ hasher.key(static_cast<std::size_t>(u));
        std::int32_t ci = lat.Find(ch, child.data(), words);
        if (ci < 0) {
          ci = static_cast<std::int32_t>(lat.sig.size());
          lat.by_hash[ch].push_back(ci);
          lat.sig.push_back(std::move(child));
          lat.footprint.push_back(child_foot);
          lat.hash.push_back(ch);
          lat.edges.emplace_back();
          lat.level_states[lvl + 1].push_back(ci);
        } else {
          // Every path into a signature reaches the same footprint: the DP
          // relaxes a found child without deriving it again.
          EXPECT_EQ(lat.footprint[static_cast<std::size_t>(ci)], child_foot);
        }
        lat.edges[static_cast<std::size_t>(s)].push_back(
            Lattice::Edge{ci, step_peak});
      }
    }
  }
  lat.suffix.assign(lat.sig.size(), 0);
  for (std::size_t lvl = n; lvl-- > 0;) {
    for (const std::int32_t s : lat.level_states[lvl]) {
      std::int64_t best = kInf;
      for (const Lattice::Edge& e : lat.edges[static_cast<std::size_t>(s)]) {
        best = std::min(
            best,
            std::max(e.step_peak,
                     lat.suffix[static_cast<std::size_t>(e.child)]));
      }
      lat.suffix[static_cast<std::size_t>(s)] = best;
    }
  }
  return lat;
}

// The i-th of the suite's 1000 small random DAGs, drawn from `rng`.
graph::Graph AuditGraph(util::Rng& rng, int i) {
  testing::RandomDagOptions opts;
  opts.num_ops = 4 + i % 7;
  opts.max_channels = 1 + i % 5;
  opts.extra_edge_p = (i % 4) * 0.25;
  opts.join_sinks = i % 3 != 0;
  return testing::RandomDag(rng, opts, "adm" + std::to_string(i));
}

constexpr int kGraphs = 1000;

TEST(BoundAdmissibility, FrontierFloorIsExactAndRespectsTheSuffixOracle) {
  util::Rng rng(20260808);
  for (int i = 0; i < kGraphs; ++i) {
    const graph::Graph g = AuditGraph(rng, i);
    const std::string ctx = "graph " + std::to_string(i);
    const ExpansionTables tables(g, graph::BufferUseTable::Build(g),
                                 graph::BuildAdjacency(g));
    const SignatureHasher hasher(tables.num_nodes());
    const Lattice lat = EnumerateLattice(tables, hasher);

    ExpansionTables::FrontierAllocs fa;
    std::vector<std::int32_t> frontier, child_frontier, newly_ready;
    std::vector<std::uint64_t> mask(tables.words_per_state());
    std::vector<std::uint64_t> child_mask(tables.words_per_state());
    std::vector<std::uint64_t> direct_mask(tables.words_per_state());

    for (std::size_t s = 0; s < lat.sig.size(); ++s) {
      const std::uint64_t* sig = lat.sig[s].data();
      const std::int64_t foot = lat.footprint[s];
      if (lat.edges[s].empty()) continue;  // full state: no bounds apply

      frontier.clear();
      tables.FrontierMask(sig, mask.data());
      util::SpanAppendSetBits(mask.data(), tables.words_per_state(),
                              &frontier);

      // Frontier allocs: exact per-candidate, and the floor is a true
      // lower bound on the very next step (hence on the suffix).
      tables.ComputeFrontierAllocs(sig, frontier, &fa);
      ASSERT_EQ(fa.alloc.size(), frontier.size()) << ctx;
      std::int64_t min_next_step = kInf;
      for (std::size_t fi = 0; fi < frontier.size(); ++fi) {
        const std::int64_t step_peak =
            tables.StepPeak(sig, frontier[fi], foot);
        ASSERT_EQ(fa.alloc[fi], step_peak - foot)
            << ctx << " state " << s << " cand " << frontier[fi];
        min_next_step = std::min(min_next_step, step_peak);
      }
      ASSERT_EQ(foot + fa.min1, min_next_step) << ctx << " state " << s;
      ASSERT_LE(foot + fa.min1, lat.suffix[s]) << ctx << " state " << s;

      for (std::size_t fi = 0; fi < frontier.size(); ++fi) {
        const std::int32_t u = frontier[fi];
        const Lattice::Edge& e = lat.edges[s][fi];
        const std::size_t c = static_cast<std::size_t>(e.child);
        if (lat.edges[c].empty()) continue;  // full-state child: no floor

        // Child floor: exact against direct recomputation on the child,
        // and admissible against the child's suffix.
        tables.ChildFrontier(mask.data(), lat.sig[c].data(), u,
                             child_mask.data(), &newly_ready);
        const std::int64_t floor = tables.ChildNextAllocFloor(
            lat.sig[c].data(), u, fa, newly_ready);
        child_frontier.clear();
        tables.FrontierMask(lat.sig[c].data(), direct_mask.data());
        util::SpanAppendSetBits(direct_mask.data(), tables.words_per_state(),
                                &child_frontier);
        std::int64_t direct = kInf;
        for (const std::int32_t v : child_frontier) {
          direct = std::min(direct, tables.StepPeak(lat.sig[c].data(), v,
                                                    lat.footprint[c]) -
                                        lat.footprint[c]);
        }
        ASSERT_EQ(floor, direct) << ctx << " state " << s << " -> " << u;
        ASSERT_LE(lat.footprint[c] + floor, lat.suffix[c])
            << ctx << " state " << s << " -> " << u;
      }
      if (::testing::Test::HasFailure()) return;  // one counterexample
    }
  }
}

// The eager rule's lemma (DESIGN.md "Eager non-increasing steps"): for a
// ready u with δ_S(u) = F(S ∪ {u}) − F(S) <= 0, taking u first costs
// nothing, max(step_S(u), suffix(S ∪ {u})) <= max(step_S(u), suffix(S)).
// With step_S(u) <= the state's peak, as the rule requires, the best
// schedule through S keeps its peak.
TEST(BoundAdmissibility, NonIncreasingStepNeverRaisesTheSuffix) {
  util::Rng rng(20260808);
  std::uint64_t checked = 0;
  for (int i = 0; i < kGraphs; ++i) {
    const graph::Graph g = AuditGraph(rng, i);
    const std::string ctx = "graph " + std::to_string(i);
    const ExpansionTables tables(g, graph::BufferUseTable::Build(g),
                                 graph::BuildAdjacency(g));
    const SignatureHasher hasher(tables.num_nodes());
    const Lattice lat = EnumerateLattice(tables, hasher);
    for (std::size_t s = 0; s < lat.sig.size(); ++s) {
      for (const Lattice::Edge& e : lat.edges[s]) {
        const std::size_t c = static_cast<std::size_t>(e.child);
        if (lat.footprint[c] > lat.footprint[s]) continue;  // δ > 0
        ++checked;
        ASSERT_LE(std::max(e.step_peak, lat.suffix[c]),
                  std::max(e.step_peak, lat.suffix[s]))
            << ctx << " state " << s << " -> state " << c;
      }
    }
  }
  EXPECT_GT(checked, 0u);
}

}  // namespace
}  // namespace serenity::core
