// Figure 13 — static scheduling time of SERENITY for every benchmark cell,
// with and without identity graph rewriting.
//
// The paper reports 40.6s / 48.8s averages for its Python implementation;
// this C++ implementation is orders of magnitude faster, so the comparison
// point is the *relative* shape: rewriting increases scheduling time on the
// cells where it adds nodes (SwiftNet, DARTS) and leaves RandWire
// unchanged, and all times stay within interactive-compilation budgets.
//
// The times are single runs, printed for reading only; --json=PATH rows
// carry the deterministic search size (states expanded and pruned) of the
// DP+GR pipeline. perfbench's plan_zoo workload is what times planning.
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "util/stats.h"

namespace {

using namespace serenity;

// Returns false iff a requested --json write failed.
bool PrintFigure(const std::string& json_path) {
  std::printf("Figure 13: SERENITY scheduling time per cell (one run; "
              "paper numbers from its Python implementation)\n\n");
  std::printf("%-32s %12s %12s %12s %12s %12s %12s\n", "cell", "DP (s)",
              "paper (s)", "DP+GR (s)", "paper (s)", "states DP+GR",
              "B&B pruned");
  bench::PrintRule();
  std::vector<double> dp_times, rw_times;
  bench::JsonRows rows;
  for (const models::BenchmarkCell& cell : models::AllBenchmarkCells()) {
    const graph::Graph g = cell.factory();
    core::PipelineOptions dp_only;
    dp_only.enable_rewriting = false;
    const core::PipelineResult dp = core::Pipeline(dp_only).Run(g);
    const core::PipelineResult full = core::Pipeline().Run(g);
    const double dp_seconds = dp.total_seconds;
    const double rw_seconds = full.total_seconds;
    dp_times.push_back(dp_seconds);
    rw_times.push_back(rw_seconds);
    std::printf("%-32s %12.4f %12.1f %12.4f %12.1f %12llu %12llu\n",
                bench::CellLabel(cell).c_str(), dp_seconds,
                cell.paper_sched_seconds_dp, rw_seconds,
                cell.paper_sched_seconds_rw,
                static_cast<unsigned long long>(full.states_expanded),
                static_cast<unsigned long long>(
                    full.states_pruned_by_bound));
    rows.Begin();
    rows.Field("cell", bench::CellLabel(cell));
    rows.Field("states_expanded", full.states_expanded);
    rows.Field("states_pruned_by_bound", full.states_pruned_by_bound);
    rows.Field("states_pruned_by_incumbent", full.pruned.incumbent);
    rows.Field("states_pruned_by_frontier_floor", full.pruned.frontier_floor);
  }
  bench::PrintRule();
  std::printf("%-32s %12.4f %12.1f %12.4f %12.1f\n", "mean",
              util::ArithmeticMean(dp_times), 40.6,
              util::ArithmeticMean(rw_times), 48.8);
  std::printf("\n");
  if (!json_path.empty()) return rows.WriteTo(json_path);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  return PrintFigure(serenity::bench::JsonFlag(argc, argv)) ? 0 : 1;
}
