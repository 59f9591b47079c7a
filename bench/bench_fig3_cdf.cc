// Figure 3(b) — CDF of peak memory footprint over the schedule space of
// SwiftNet Cell A.
//
// Samples uniform random topological orders, reports the empirical CDF of
// their peak footprints, the fraction satisfying a hard edge-device
// constraint (the paper uses the SparkFun Edge's 250KB), and the fraction
// achieving the DP optimum (paper: 4.1% and 0.04% respectively).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/dp_scheduler.h"
#include "models/swiftnet.h"
#include "rewrite/rewriter.h"
#include "util/rng.h"
#include "util/stats.h"

namespace {

using namespace serenity;

constexpr int kSamples = 100000;
constexpr std::int64_t kConstraintBytes = 250 * 1024;  // SparkFun Edge

void RunCdf(const graph::Graph& g, const char* label) {
  const graph::BufferUseTable table = graph::BufferUseTable::Build(g);
  util::Rng rng(2020);
  std::vector<double> peaks;
  peaks.reserve(kSamples);
  for (int i = 0; i < kSamples; ++i) {
    const sched::Schedule s = sched::RandomTopologicalSchedule(g, rng);
    peaks.push_back(static_cast<double>(
        sched::EvaluateFootprint(g, table, s).peak_bytes));
  }
  const core::DpResult dp = core::ScheduleDp(g);
  const double optimal = static_cast<double>(dp.peak_bytes);

  std::printf("\n%s (%d nodes, %d random schedules)\n", label, g.num_nodes(),
              kSamples);
  std::printf("  optimal peak (DP)        : %8.1f KB\n", bench::Kb(dp.peak_bytes));
  std::printf("  schedule-space min / max : %8.1f / %.1f KB\n",
              bench::Kb(static_cast<std::int64_t>(
                  *std::min_element(peaks.begin(), peaks.end()))),
              bench::Kb(static_cast<std::int64_t>(
                  *std::max_element(peaks.begin(), peaks.end()))));
  std::printf("  within %ldKB constraint  : %7.3f%%   (paper: 4.1%%)\n",
              static_cast<long>(kConstraintBytes / 1024),
              100.0 * util::FractionAtOrBelow(
                          peaks, static_cast<double>(kConstraintBytes)));
  std::printf("  achieving the optimum    : %7.3f%%   (paper: 0.04%%)\n",
              100.0 * util::FractionAtOrBelow(peaks, optimal));
  std::printf("\n  cumulative distribution (peak KB -> %% of schedules):\n");
  for (const util::CdfPoint& point : util::EmpiricalCdf(peaks, 16)) {
    std::printf("    %8.1f KB  %6.2f%%  |%s\n",
                point.value / 1024.0, 100.0 * point.fraction,
                std::string(static_cast<std::size_t>(point.fraction * 50),
                            '#')
                    .c_str());
  }
}

void PrintFigure() {
  std::printf("Figure 3(b): CDF of peak memory footprint across the "
              "schedule space\n");
  // The paper plots the original graph; the rewritten graph (the space the
  // full SERENITY pipeline searches) is included to show how rewriting
  // shifts the whole distribution down.
  RunCdf(models::MakeSwiftNetCellA(), "SwiftNet Cell A");
  RunCdf(rewrite::RewriteGraph(models::MakeSwiftNetCellA()).graph,
         "SwiftNet Cell A after identity graph rewriting");
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  serenity::bench::ParseFlags(argc, argv, {});
  PrintFigure();
  return 0;
}
