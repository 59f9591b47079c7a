// Figure 13 — static scheduling time of SERENITY for every benchmark cell,
// with and without identity graph rewriting.
//
// The paper reports 40.6s / 48.8s averages for its Python implementation;
// this C++ implementation is orders of magnitude faster, so the comparison
// point is the *relative* shape: rewriting increases scheduling time on the
// cells where it adds nodes (SwiftNet, DARTS) and leaves RandWire
// unchanged, and all times stay within interactive-compilation budgets.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "util/stats.h"

namespace {

using namespace serenity;

double MedianSeconds(const graph::Graph& g, bool rewriting) {
  core::PipelineOptions options;
  options.enable_rewriting = rewriting;
  std::vector<double> runs;
  for (int i = 0; i < 3; ++i) {
    const core::PipelineResult r = core::Pipeline(options).Run(g);
    if (!r.status.ok()) return -1.0;
    runs.push_back(r.total_seconds);
  }
  return util::Percentile(runs, 50);
}

// Returns false iff a requested --json write failed.
bool PrintFigure(const std::string& json_path) {
  std::printf("Figure 13: SERENITY scheduling time per cell (median of 3; "
              "paper numbers from its Python implementation)\n\n");
  std::printf("%-32s %12s %12s %12s %12s %12s %12s\n", "cell", "DP (s)",
              "paper (s)", "DP+GR (s)", "paper (s)", "states DP+GR",
              "B&B pruned");
  bench::PrintRule();
  std::vector<double> dp_times, rw_times;
  bench::JsonRows rows;
  for (const models::BenchmarkCell& cell : models::AllBenchmarkCells()) {
    const graph::Graph g = cell.factory();
    const double dp_seconds = MedianSeconds(g, /*rewriting=*/false);
    const double rw_seconds = MedianSeconds(g, /*rewriting=*/true);
    core::PipelineResult full = core::Pipeline().Run(g);
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
    rows.Field("dp_seconds", dp_seconds);
    rows.Field("dp_rw_seconds", rw_seconds);
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
  if (!json_path.empty()) {
    rows.Begin();
    rows.Field("cell", std::string("mean"));
    rows.Field("dp_seconds", util::ArithmeticMean(dp_times));
    rows.Field("dp_rw_seconds", util::ArithmeticMean(rw_times));
    return rows.WriteTo(json_path);
  }
  return true;
}

void BM_ScheduleCell(benchmark::State& state) {
  const auto& cells = models::AllBenchmarkCells();
  const graph::Graph g =
      cells[static_cast<std::size_t>(state.range(0))].factory();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::Pipeline().Run(g).peak_bytes);
  }
  state.SetLabel(cells[static_cast<std::size_t>(state.range(0))].group +
                 "/" + cells[static_cast<std::size_t>(state.range(0))].name);
}
BENCHMARK(BM_ScheduleCell)->DenseRange(0, 8)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = serenity::bench::TakeJsonFlag(&argc, argv);
  const bool json_ok = PrintFigure(json_path);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return json_ok ? 0 : 1;
}
