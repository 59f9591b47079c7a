// Design-choice ablations beyond the paper's own tables:
//
//   (a) soft-budget sweep: explored states vs budget τ — the monotone curve
//       behind Figure 8(b) that makes the binary search of Algorithm 2 work
//       (DESIGN.md "§3.3 Adaptive soft budgeting");
//   (b) baseline scheduler shootout: declaration order vs Kahn FIFO vs DFS
//       vs memory-greedy vs DP optimum;
//   (c) Belady vs LRU replacement in the hierarchy simulator (DESIGN.md
//       "Arena planner and hierarchy simulator: plain scans");
//   (d) beam widths vs the exact DP (DESIGN.md "Branch-and-bound over
//       levels": the beam is the DP walk with a level width).
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/dp_scheduler.h"
#include "memsim/hierarchy_sim.h"
#include "models/swiftnet.h"
#include "sched/beam.h"
#include "util/stats.h"

namespace {

using namespace serenity;

void PrintBudgetSweep() {
  std::printf("(a) soft-budget sweep on SwiftNet Cell A: explored states "
              "vs budget (Figure 8(b) mechanism)\n");
  const graph::Graph g = models::MakeSwiftNetCellA();
  const core::DpResult optimal = core::ScheduleDp(g);
  std::printf("    %-14s %12s %12s\n", "tau / mu*", "states", "status");
  for (const double factor :
       {0.95, 1.0, 1.05, 1.1, 1.25, 1.5, 2.0, 4.0}) {
    core::DpOptions options;
    options.budget_bytes = static_cast<std::int64_t>(
        static_cast<double>(optimal.peak_bytes) * factor);
    const core::DpResult r = core::ScheduleDp(g, options);
    std::printf("    %-14.2f %12llu %12s\n", factor,
                static_cast<unsigned long long>(r.states_expanded),
                ToString(r.status));
  }
  std::printf("\n");
}

void PrintBaselineShootout() {
  std::printf("(b) baseline scheduler shootout (peak footprint KB, no "
              "allocator)\n");
  std::printf("    %-32s %9s %9s %9s %9s %9s\n", "cell", "decl", "kahn",
              "dfs", "greedy", "DP");
  for (const models::BenchmarkCell& cell : models::AllBenchmarkCells()) {
    const graph::Graph g = cell.factory();
    const core::DpResult dp = core::ScheduleDp(g);
    std::printf("    %-32s %9.1f %9.1f %9.1f %9.1f %9.1f\n",
                bench::CellLabel(cell).c_str(),
                bench::Kb(sched::PeakFootprint(
                    g, sched::TfLiteOrderSchedule(g))),
                bench::Kb(sched::PeakFootprint(g, sched::KahnFifoSchedule(g))),
                bench::Kb(sched::PeakFootprint(
                    g, sched::DfsPostorderSchedule(g))),
                bench::Kb(sched::PeakFootprint(
                    g, sched::GreedyMemorySchedule(g))),
                bench::Kb(dp.peak_bytes));
  }
  std::printf("\n");
}

void PrintReplacementAblation() {
  std::printf("(c) Belady vs LRU off-chip traffic (KB), TFLite schedule\n");
  std::printf("    %-32s %10s %10s %10s\n", "cell", "capacity", "belady",
              "lru");
  for (const char* name : {"Cell A", "Cell B"}) {
    const graph::Graph g =
        models::FindBenchmarkCell("SwiftNet HPD", name).factory();
    const sched::Schedule s = sched::TfLiteOrderSchedule(g);
    for (const std::int64_t kb : {96, 160, 256}) {
      memsim::SimOptions belady{kb * 1024, memsim::ReplacementPolicy::kBelady};
      memsim::SimOptions lru{kb * 1024, memsim::ReplacementPolicy::kLru};
      const auto rb = memsim::SimulateHierarchy(g, s, belady);
      const auto rl = memsim::SimulateHierarchy(g, s, lru);
      if (!rb.feasible) continue;
      std::printf("    SwiftNet HPD / %-17s %8lldKB %10.1f %10.1f\n", name,
                  static_cast<long long>(kb), bench::Kb(rb.TotalTraffic()),
                  bench::Kb(rl.TotalTraffic()));
    }
  }
  std::printf("\n");
}

void PrintBeamAblation() {
  std::printf("(d) beam-search fallback vs exact DP (peak KB)\n");
  std::printf("    %-32s %9s %9s %9s %9s\n", "cell", "beam w=1", "beam w=8",
              "beam w=64", "DP");
  for (const models::BenchmarkCell& cell : models::AllBenchmarkCells()) {
    const graph::Graph g = cell.factory();
    const core::DpResult dp = core::ScheduleDp(g);
    double beams[3];
    int i = 0;
    for (const int width : {1, 8, 64}) {
      sched::BeamOptions options;
      options.width = width;
      beams[i++] = bench::Kb(sched::ScheduleBeam(g, options).peak_bytes);
    }
    std::printf("    %-32s %9.1f %9.1f %9.1f %9.1f\n",
                bench::CellLabel(cell).c_str(), beams[0], beams[1], beams[2],
                bench::Kb(dp.peak_bytes));
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  serenity::bench::ParseFlags(argc, argv, {});
  std::printf("Design ablations beyond the paper's tables\n\n");
  PrintBudgetSweep();
  PrintBaselineShootout();
  PrintReplacementAblation();
  PrintBeamAblation();
  return 0;
}
