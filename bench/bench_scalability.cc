// Scalability study (not a paper figure): how the search size of the exact
// DP — with and without incumbent-seeded branch-and-bound pruning — and the
// peak of the beam fallback scale with graph size on synthetic irregular
// networks — the practical guidance a user needs when importing arbitrary
// graphs (DESIGN.md §3.6, "Branch-and-bound over levels"). Planning time is
// perfbench's plan_zoo workload.
#include <algorithm>
#include <cstdio>
#include <string>

#include "bench_common.h"
#include "core/dp_scheduler.h"
#include "models/random_cell.h"
#include "sched/baselines.h"
#include "sched/beam.h"
#include "sched/schedule.h"

namespace {

using namespace serenity;

graph::Graph NetworkOfSize(int cells, int intermediates) {
  models::RandomCellParams p;
  p.seed = 97;
  p.num_cells = cells;
  p.num_intermediates = intermediates;
  p.concat_branches = 4;
  p.spatial = 8;
  p.name = "scale_net";
  return models::MakeRandomCellNetwork(p);
}

// Returns false iff a requested --json write failed.
bool PrintStudy(const std::string& json_path) {
  std::printf("Scheduling scalability on synthetic irregular networks\n\n");
  std::printf("%8s %8s | %12s | %12s %12s | %9s\n", "nodes", "edges",
              "DP states", "B&B states", "pruned", "beam64/DP");
  bench::PrintRule();
  bench::JsonRows rows;
  for (const auto& [cells, intermediates] :
       {std::pair{1, 6}, {1, 10}, {2, 10}, {3, 12}, {5, 12}, {8, 14}}) {
    const graph::Graph g = NetworkOfSize(cells, intermediates);

    const core::DpResult dp = core::ScheduleDp(g);
    if (dp.status != core::DpStatus::kSolution) continue;

    // Incumbent-seeded branch-and-bound, seeded exactly like the pipeline:
    // the better of the greedy baseline and the beam below. Peak and
    // schedule are bit-identical to the plain DP; only the explored state
    // count drops (pinned by bnb_property_test).
    sched::BeamOptions beam_options;
    beam_options.width = 64;
    const sched::BeamResult beam = sched::ScheduleBeam(g, beam_options);

    core::DpOptions bnb_options;
    bnb_options.incumbent_bytes = std::min(
        sched::PeakFootprint(g, sched::GreedyMemorySchedule(g)),
        beam.peak_bytes);
    const core::DpResult bnb = core::ScheduleDp(g, bnb_options);

    std::printf("%8d %8d | %12llu | %12llu %12llu | %8.3fx\n",
                g.num_nodes(), g.num_edges(),
                static_cast<unsigned long long>(dp.states_expanded),
                static_cast<unsigned long long>(bnb.states_expanded),
                static_cast<unsigned long long>(bnb.states_pruned_by_bound),
                static_cast<double>(beam.peak_bytes) /
                    static_cast<double>(dp.peak_bytes));

    rows.Begin();
    rows.Field("network", std::string("scale_") + std::to_string(cells) +
                              "x" + std::to_string(intermediates));
    rows.Field("nodes", static_cast<std::int64_t>(g.num_nodes()));
    rows.Field("edges", static_cast<std::int64_t>(g.num_edges()));
    rows.Field("dp_peak_bytes", dp.peak_bytes);
    rows.Field("states_expanded", dp.states_expanded);
    rows.Field("bnb_states_expanded", bnb.states_expanded);
    rows.Field("states_pruned_by_bound", bnb.states_pruned_by_bound);
    rows.Field("states_pruned_by_incumbent", bnb.pruned.incumbent);
    rows.Field("states_pruned_by_frontier_floor", bnb.pruned.frontier_floor);
    rows.Field("bnb_peak_bytes", bnb.peak_bytes);
    rows.Field("max_level_states", dp.max_level_states);
    rows.Field("beam64_peak_bytes", beam.peak_bytes);
  }
  std::printf("\nbeam64/DP is the beam's peak relative to the exact optimum "
              "(1.000x = optimal); B&B states are bit-identical searches "
              "pruned against the greedy/beam incumbent.\n\n");
  if (!json_path.empty()) return rows.WriteTo(json_path);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  return PrintStudy(serenity::bench::JsonFlag(argc, argv)) ? 0 : 1;
}
