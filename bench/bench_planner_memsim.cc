// The post-scheduling passes — the arena planner (alloc/arena_planner)
// and the hierarchy simulator (memsim/hierarchy_sim) — on the paper's
// largest cells (DARTS, RandWire) and on synthetic RandWire-scale DAGs
// several times that size. --json=PATH rows pin each input's buffer and
// step counts, its planned arena and its simulated off-chip traffic and
// evictions, so the exact baseline compare catches any change in what the
// planner or the simulator computes on inputs far larger than the zoo's.
// The property suites (arena_planner_property_test,
// hierarchy_sim_property_test) pin both passes to the oracles in
// tests/testing/reference_impls.h.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "memsim/hierarchy_sim.h"
#include "testing/random_graphs.h"
#include "util/logging.h"
#include "util/rng.h"

namespace {

using namespace serenity;

struct InputCase {
  std::string label;
  graph::Graph graph;
};

std::vector<InputCase> BuildInputs() {
  std::vector<InputCase> inputs;
  inputs.push_back({"DARTS ImageNet / Normal Cell",
                    models::FindBenchmarkCell("DARTS ImageNet", "Normal Cell")
                        .factory()});
  inputs.push_back({"RandWire CIFAR100 / Cell C",
                    models::FindBenchmarkCell("RandWire CIFAR100", "Cell C")
                        .factory()});
  util::Rng rng(20260730);
  testing::RandomDagOptions medium;
  medium.num_ops = 512;
  medium.max_channels = 6;
  medium.extra_edge_p = 0.4;
  inputs.push_back({"random DAG / 512 ops",
                    testing::RandomDag(rng, medium, "rand512")});
  testing::RandomDagOptions large = medium;
  large.num_ops = 2048;
  inputs.push_back({"random DAG / 2048 ops",
                    testing::RandomDag(rng, large, "rand2048")});
  return inputs;
}

// Returns false iff a requested --json write failed.
bool PrintRows(const std::string& json_path) {
  std::printf("Planner + hierarchy-sim hot paths (TFLite order, on-chip "
              "capacity half the peak)\n\n");
  std::printf("%-28s %7s %7s  %12s %12s\n", "input", "bufs", "steps",
              "arena KB", "traffic KB");
  bench::PrintRule(72);
  bench::JsonRows rows;
  for (const InputCase& input : BuildInputs()) {
    const graph::Graph& g = input.graph;
    const sched::Schedule s = sched::TfLiteOrderSchedule(g);
    const graph::BufferUseTable table = graph::BufferUseTable::Build(g);

    const std::int64_t arena_bytes =
        alloc::PlanArena(g, table, s).arena_bytes;

    // A pressured budget: Belady evicts continuously, the regime where the
    // eviction path dominates.
    memsim::SimOptions options;
    options.onchip_bytes =
        std::max<std::int64_t>(options.page_bytes,
                               sched::PeakFootprint(g, s) / 2);
    const memsim::SimResult sim =
        memsim::SimulateHierarchy(g, table, s, options);
    const std::int64_t traffic_bytes = sim.TotalTraffic();

    std::printf("%-28s %7zu %7zu  %12.1f %12.1f\n", input.label.c_str(),
                table.buffers.size(), s.size(), bench::Kb(arena_bytes),
                bench::Kb(traffic_bytes));
    rows.Begin();
    rows.Field("input", input.label);
    rows.Field("buffers", static_cast<std::int64_t>(table.buffers.size()));
    rows.Field("steps", static_cast<std::int64_t>(s.size()));
    rows.Field("arena_bytes", arena_bytes);
    rows.Field("traffic_bytes", traffic_bytes);
    rows.Field("evictions", sim.evictions);
  }
  bench::PrintRule(72);
  std::printf("\n");
  if (!json_path.empty()) return rows.WriteTo(json_path);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  return PrintRows(serenity::bench::JsonFlag(argc, argv)) ? 0 : 1;
}
