// Figure 10 — reduction in peak memory footprint of SERENITY against
// TensorFlow Lite (no memory hierarchy), with the memory allocator applied
// to both systems, for all nine benchmark cells plus the geometric mean.
// The KB columns are the raw footprints of Figure 15 (appendix B).
//
// Two SERENITY configurations, as in the paper:
//   DP   = dynamic-programming scheduler + memory allocator
//   DP+GR = + identity graph rewriting
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "util/stats.h"

namespace {

using namespace serenity;

// Returns false iff a requested --json write failed.
bool PrintFigure(const std::string& json_path) {
  std::printf("Figure 10: peak-memory reduction vs TensorFlow Lite "
              "(greedy arena allocator applied to every configuration)\n");
  std::printf("Figure 15: the raw footprints, KB (ours = synthetic cells "
              "with the published topologies; paper = the authors' "
              "checkpoints)\n\n");
  std::printf("%-32s %9s %7s %9s %7s %9s %7s  %7s %7s   %7s %7s\n", "cell",
              "TFLite KB", "paper", "DP KB", "paper", "DP+GR KB", "paper",
              "DP x", "paper", "DP+GR x", "paper");
  bench::PrintRule(126);
  std::vector<double> dp_ratios, rw_ratios, paper_dp, paper_rw;
  bench::JsonRows rows;
  for (const models::BenchmarkCell& cell : models::AllBenchmarkCells()) {
    const bench::CellMeasurement m = bench::MeasureCell(cell);
    if (!m.dp.status.ok() || !m.dp_rw.status.ok()) {
      std::printf("%-32s  scheduling failed\n",
                  bench::CellLabel(cell).c_str());
      continue;
    }
    const double dp_ratio = static_cast<double>(m.tflite_arena) /
                            static_cast<double>(m.dp_arena);
    const double rw_ratio = static_cast<double>(m.tflite_arena) /
                            static_cast<double>(m.dp_rw_arena);
    dp_ratios.push_back(dp_ratio);
    rw_ratios.push_back(rw_ratio);
    paper_dp.push_back(cell.paper_tflite_kb / cell.paper_dp_kb);
    paper_rw.push_back(cell.paper_tflite_kb / cell.paper_dp_rw_kb);
    std::printf("%-32s %9.1f %7.0f %9.1f %7.0f %9.1f %7.0f  %6.2fx %6.2fx   "
                "%6.2fx %6.2fx\n",
                bench::CellLabel(cell).c_str(), bench::Kb(m.tflite_arena),
                cell.paper_tflite_kb, bench::Kb(m.dp_arena), cell.paper_dp_kb,
                bench::Kb(m.dp_rw_arena), cell.paper_dp_rw_kb, dp_ratio,
                paper_dp.back(), rw_ratio, paper_rw.back());
    rows.Begin();
    rows.Field("cell", bench::CellLabel(cell));
    rows.Field("tflite_kb", bench::Kb(m.tflite_arena));
    rows.Field("dp_kb", bench::Kb(m.dp_arena));
    rows.Field("dp_rw_kb", bench::Kb(m.dp_rw_arena));
    rows.Field("dp_ratio", dp_ratio);
    rows.Field("dp_rw_ratio", rw_ratio);
  }
  bench::PrintRule(126);
  std::printf("%-32s %9s %7s %9s %7s %9s %7s  %6.2fx %6.2fx   %6.2fx %6.2fx\n",
              "geomean", "", "", "", "", "", "",
              util::GeometricMean(dp_ratios), util::GeometricMean(paper_dp),
              util::GeometricMean(rw_ratios), util::GeometricMean(paper_rw));
  std::printf("\npaper geomeans: 1.68x (DP), 1.86x (DP+GR)\n\n");
  if (!json_path.empty()) {
    rows.Begin();
    rows.Field("cell", std::string("geomean"));
    rows.Field("dp_ratio", util::GeometricMean(dp_ratios));
    rows.Field("dp_rw_ratio", util::GeometricMean(rw_ratios));
    return rows.WriteTo(json_path);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  return PrintFigure(serenity::bench::JsonFlag(argc, argv)) ? 0 : 1;
}
