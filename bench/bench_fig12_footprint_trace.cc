// Figure 12 — memory footprint over time while running SwiftNet Cell A:
//   (a) with the memory allocator (arena high-water at each step),
//   (b) without the allocator (sum of live activations at each step).
//
// The paper's headline trace numbers: TFLite 551.0KB -> DP 250.9KB ->
// DP+GR 225.8KB with the allocator; DP 200.7KB -> DP+GR 188.2KB without.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "models/swiftnet.h"
#include "util/chart.h"

namespace {

using namespace serenity;

void PrintSeries(const char* label, const std::vector<std::int64_t>& series,
                 const std::string& series_key, bench::JsonRows* rows) {
  const std::int64_t peak = *std::max_element(series.begin(), series.end());
  std::printf("  %-44s peak %8.1f KB\n", label, bench::Kb(peak));
  std::printf("    step:KB ");
  for (std::size_t i = 0; i < series.size(); ++i) {
    std::printf("%zu:%.0f ", i, bench::Kb(series[i]));
  }
  std::printf("\n");
  rows->Begin();
  rows->Field("series", series_key);
  rows->Field("peak_kb", bench::Kb(peak));
  rows->Field("steps", static_cast<std::int64_t>(series.size()));
}

util::ChartSeries ToChart(const char* label, char marker,
                          const std::vector<std::int64_t>& series) {
  util::ChartSeries s;
  s.label = label;
  s.marker = marker;
  for (const std::int64_t v : series) {
    s.values.push_back(bench::Kb(v));
  }
  return s;
}

// Returns false iff a requested --json write failed.
bool PrintFigure(const std::string& json_path) {
  const models::BenchmarkCell& cell =
      models::FindBenchmarkCell("SwiftNet HPD", "Cell A");
  const bench::CellMeasurement m = bench::MeasureCell(cell);

  std::printf("Figure 12: memory footprint over time, SwiftNet Cell A\n");

  bench::JsonRows rows;
  std::printf("\n(a) with the memory allocator (arena usage per step)\n");
  PrintSeries("TensorFlow Lite (paper: 551.0 KB)",
              alloc::PlanArena(m.graph, m.tflite_schedule)
                  .highwater_at_step,
              "tflite_arena", &rows);
  PrintSeries("DP + allocator (paper: 250.9 KB)",
              alloc::PlanArena(m.dp.scheduled_graph, m.dp.schedule)
                  .highwater_at_step,
              "dp_arena", &rows);
  PrintSeries("DP + rewriting + allocator (paper: 225.8 KB)",
              alloc::PlanArena(m.dp_rw.scheduled_graph, m.dp_rw.schedule)
                  .highwater_at_step,
              "dp_rw_arena", &rows);

  std::printf("\n(b) without the allocator (sum of live activations)\n");
  PrintSeries("DP (paper: 200.7 KB)",
              sched::EvaluateFootprint(m.dp.scheduled_graph, m.dp.schedule)
                  .peak_at_step,
              "dp_liveness", &rows);
  PrintSeries(
      "DP + rewriting (paper: 188.2 KB)",
      sched::EvaluateFootprint(m.dp_rw.scheduled_graph, m.dp_rw.schedule)
          .peak_at_step,
      "dp_rw_liveness", &rows);

  std::printf("\nfootprint-over-time chart (with allocator):\n");
  util::ChartOptions chart_options;
  chart_options.y_unit = "KB";
  std::printf("%s\n",
              util::RenderChart(
                  {ToChart("TensorFlow Lite", 'T',
                           alloc::PlanArena(m.graph, m.tflite_schedule)
                               .highwater_at_step),
                   ToChart("SERENITY DP", 'd',
                           alloc::PlanArena(m.dp.scheduled_graph,
                                            m.dp.schedule)
                               .highwater_at_step),
                   ToChart("SERENITY DP+rewriting", '#',
                           alloc::PlanArena(m.dp_rw.scheduled_graph,
                                            m.dp_rw.schedule)
                               .highwater_at_step)},
                  chart_options)
                  .c_str());

  const double alloc_delta =
      bench::Kb(alloc::PlanArena(m.dp.scheduled_graph, m.dp.schedule)
                    .arena_bytes) -
      bench::Kb(alloc::PlanArena(m.dp_rw.scheduled_graph, m.dp_rw.schedule)
                    .arena_bytes);
  const double pure_delta = bench::Kb(m.dp.peak_bytes) -
                            bench::Kb(m.dp_rw.peak_bytes);
  std::printf("\nrewriting reduced the peak by %.1f KB with the allocator "
              "(paper: 25.1 KB)\n", alloc_delta);
  std::printf("rewriting reduced the peak by %.1f KB without the allocator "
              "(paper: 12.5 KB)\n\n", pure_delta);
  if (!json_path.empty()) {
    rows.Begin();
    rows.Field("series", std::string("rewriting_delta"));
    rows.Field("alloc_delta_kb", alloc_delta);
    rows.Field("pure_delta_kb", pure_delta);
    return rows.WriteTo(json_path);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  return PrintFigure(serenity::bench::JsonFlag(argc, argv)) ? 0 : 1;
}
