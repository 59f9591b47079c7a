// Randomized property suite pinning the hierarchy simulator to the seed's
// linear-scan replay (`testing::ReferenceSimulateHierarchy`, with eviction
// ties locked to the lowest page id in both): read/write traffic, eviction
// count, peak residency and feasibility must be bit-identical for Belady
// and LRU across page sizes and on-chip budgets, on 1000 small random DAGs
// and on the nine zoo cells (TFLite and Pipeline order) plus three
// 100-400-op random DAGs.
#include "memsim/hierarchy_sim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "sched/baselines.h"
#include "sched/schedule.h"
#include "testing/random_graphs.h"
#include "testing/reference_impls.h"
#include "util/rng.h"

namespace serenity::memsim {
namespace {

void ExpectResultsIdentical(const SimResult& got, const SimResult& want,
                            const std::string& context) {
  EXPECT_EQ(got.feasible, want.feasible) << context;
  EXPECT_EQ(got.read_bytes, want.read_bytes) << context;
  EXPECT_EQ(got.write_bytes, want.write_bytes) << context;
  EXPECT_EQ(got.evictions, want.evictions) << context;
  EXPECT_EQ(got.peak_resident_bytes, want.peak_resident_bytes) << context;
}

// Replays `s` over `g` under both policies, two page sizes and a pressured
// and a generous budget; stops at the first mismatch.
void ExpectMatchesReference(const graph::Graph& g, const sched::Schedule& s,
                            const std::string& label) {
  const ReplacementPolicy kPolicies[] = {ReplacementPolicy::kBelady,
                                         ReplacementPolicy::kLru};
  const graph::BufferUseTable table = graph::BufferUseTable::Build(g);
  const std::int64_t peak = sched::PeakFootprint(g, s);
  for (const ReplacementPolicy policy : kPolicies) {
    for (const std::int64_t page_bytes : {std::int64_t{1024},
                                          std::int64_t{4096}}) {
      // A pressured budget (traffic and evictions) and a generous one
      // (zero-traffic path); both must match the reference exactly.
      const std::int64_t budgets[] = {
          std::max(page_bytes, peak / 2),
          peak + static_cast<std::int64_t>(g.num_buffers()) * page_bytes};
      for (const std::int64_t budget : budgets) {
        SimOptions options;
        options.policy = policy;
        options.page_bytes = page_bytes;
        options.onchip_bytes = budget;
        const SimResult got = SimulateHierarchy(g, table, s, options);
        const SimResult want =
            testing::ReferenceSimulateHierarchy(g, table, s, options);
        ExpectResultsIdentical(
            got, want,
            label + " policy " + std::to_string(static_cast<int>(policy)) +
                " page " + std::to_string(page_bytes) + " budget " +
                std::to_string(budget));
        if (::testing::Test::HasFailure()) return;  // one counterexample
      }
    }
  }
}

TEST(HierarchySimProperty, BitIdenticalToReferenceOnRandomGraphs) {
  util::Rng rng(4096);
  constexpr int kGraphs = 1000;
  for (int i = 0; i < kGraphs; ++i) {
    testing::RandomDagOptions opts;
    opts.num_ops = 4 + i % 12;
    opts.max_channels = 1 + i % 5;
    opts.extra_edge_p = (i % 4) * 0.2;
    opts.join_sinks = i % 3 != 0;
    const graph::Graph g =
        testing::RandomDag(rng, opts, "sim" + std::to_string(i));
    const sched::Schedule s = (i % 2 == 0)
                                  ? sched::TfLiteOrderSchedule(g)
                                  : sched::RandomTopologicalSchedule(g, rng);
    ExpectMatchesReference(g, s, "graph " + std::to_string(i));
    if (::testing::Test::HasFailure()) return;
  }
  for (const testing::ScheduledGraph& input :
       testing::ZooAndLargeDagInputs()) {
    ExpectMatchesReference(input.graph, input.schedule, input.label);
    if (::testing::Test::HasFailure()) return;
  }
}

}  // namespace
}  // namespace serenity::memsim
