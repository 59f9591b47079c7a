// Scalability study (not a paper figure): how the exact DP — with and
// without incumbent-seeded branch-and-bound pruning — the soft-budgeted DP,
// the beam fallback and the greedy heuristic scale with graph size on
// synthetic irregular networks — the practical guidance a user needs when
// importing arbitrary graphs (DESIGN.md §3.6, "Branch-and-bound over
// levels").
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "bench_common.h"
#include "core/dp_scheduler.h"
#include "core/soft_budget.h"
#include "models/random_cell.h"
#include "sched/baselines.h"
#include "sched/beam.h"
#include "sched/schedule.h"
#include "util/stopwatch.h"

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
  std::printf("%8s %8s | %12s %12s | %12s %12s | %12s | %12s %9s\n",
              "nodes", "edges", "DP (ms)", "states", "B&B states",
              "pruned", "soft (ms)", "beam64 (ms)", "beam/DP");
  bench::PrintRule();
  bench::JsonRows rows;
  for (const auto& [cells, intermediates] :
       {std::pair{1, 6}, {1, 10}, {2, 10}, {3, 12}, {5, 12}, {8, 14}}) {
    const graph::Graph g = NetworkOfSize(cells, intermediates);

    util::Stopwatch dp_clock;
    const core::DpResult dp = core::ScheduleDp(g);
    const double dp_ms = dp_clock.ElapsedMillis();
    if (dp.status != core::DpStatus::kSolution) continue;

    // Incumbent-seeded branch-and-bound, seeded exactly like the pipeline:
    // the better of the greedy baseline and the beam below. Peak and
    // schedule are bit-identical to the plain DP; only the explored state
    // count drops (pinned by bnb_property_test).
    util::Stopwatch beam_clock;
    sched::BeamOptions beam_options;
    beam_options.width = 64;
    const sched::BeamResult beam = sched::ScheduleBeam(g, beam_options);
    const double beam_ms = beam_clock.ElapsedMillis();

    core::DpOptions bnb_options;
    bnb_options.incumbent_bytes = std::min(
        sched::PeakFootprint(g, sched::GreedyMemorySchedule(g)),
        beam.peak_bytes);
    util::Stopwatch bnb_clock;
    const core::DpResult bnb = core::ScheduleDp(g, bnb_options);
    const double bnb_ms = bnb_clock.ElapsedMillis();

    util::Stopwatch sb_clock;
    const core::SoftBudgetResult sb = core::ScheduleWithSoftBudget(g);
    const double sb_ms = sb_clock.ElapsedMillis();

    std::printf(
        "%8d %8d | %12.2f %12llu | %12llu %12llu | %12.2f | %12.2f %8.3fx\n",
        g.num_nodes(), g.num_edges(), dp_ms,
        static_cast<unsigned long long>(dp.states_expanded),
        static_cast<unsigned long long>(bnb.states_expanded),
        static_cast<unsigned long long>(bnb.states_pruned_by_bound), sb_ms,
        beam_ms,
        static_cast<double>(beam.peak_bytes) /
            static_cast<double>(dp.peak_bytes));
    (void)sb;

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
    rows.Field("dp_seconds", dp_ms / 1000.0);
    rows.Field("bnb_seconds", bnb_ms / 1000.0);
    rows.Field("soft_seconds", sb_ms / 1000.0);
    rows.Field("beam_seconds", beam_ms / 1000.0);
  }
  std::printf("\nbeam/DP is the beam's peak relative to the exact optimum "
              "(1.000x = optimal); B&B states are bit-identical searches "
              "pruned against the greedy/beam incumbent.\n\n");
  if (!json_path.empty()) return rows.WriteTo(json_path);
  return true;
}

void BM_DpByGraphSize(benchmark::State& state) {
  const graph::Graph g =
      NetworkOfSize(static_cast<int>(state.range(0)), 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ScheduleDp(g).states_expanded);
  }
  state.SetLabel(std::to_string(g.num_nodes()) + " nodes");
}
BENCHMARK(BM_DpByGraphSize)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_BnbDpByGraphSize(benchmark::State& state) {
  const graph::Graph g =
      NetworkOfSize(static_cast<int>(state.range(0)), 10);
  sched::BeamOptions beam_options;
  beam_options.width = 64;
  core::DpOptions options;
  options.incumbent_bytes = std::min(
      sched::PeakFootprint(g, sched::GreedyMemorySchedule(g)),
      sched::ScheduleBeam(g, beam_options).peak_bytes);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ScheduleDp(g, options).states_expanded);
  }
  state.SetLabel(std::to_string(g.num_nodes()) + " nodes");
}
BENCHMARK(BM_BnbDpByGraphSize)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_BeamByGraphSize(benchmark::State& state) {
  const graph::Graph g =
      NetworkOfSize(static_cast<int>(state.range(0)), 10);
  sched::BeamOptions options;
  options.width = 64;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::ScheduleBeam(g, options).peak_bytes);
  }
  state.SetLabel(std::to_string(g.num_nodes()) + " nodes");
}
BENCHMARK(BM_BeamByGraphSize)->Arg(1)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = serenity::bench::TakeJsonFlag(&argc, argv);
  const bool json_ok = PrintStudy(json_path);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return json_ok ? 0 : 1;
}
