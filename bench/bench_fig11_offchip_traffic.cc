// Figure 11 — reduction in off-chip memory communication of SERENITY
// against TensorFlow Lite on a device with a two-level memory hierarchy,
// sweeping on-chip capacities {32, 64, 128, 256}KB.
//
// Belady's clairvoyant replacement replays both schedules (§4.2). Special
// cases follow the paper's annotations:
//   N/A    — the footprint already fits on-chip for both systems (no
//            off-chip communication to reduce)
//   REMOVED — only SERENITY fits on-chip: it eliminates the traffic
//   INF    — a single node's working set exceeds the capacity
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "memsim/hierarchy_sim.h"
#include "util/stats.h"

namespace {

using namespace serenity;

const std::vector<std::int64_t>& Capacities() {
  static const std::vector<std::int64_t> kCaps = {
      32 * 1024, 64 * 1024, 128 * 1024, 256 * 1024};
  return kCaps;
}

// Returns false iff a requested --json write failed.
bool PrintFigure(const std::string& json_path) {
  std::printf("Figure 11: off-chip traffic reduction vs TensorFlow Lite "
              "(Belady's optimal replacement)\n\n");
  std::printf("%-32s", "cell");
  for (const std::int64_t cap : Capacities()) {
    std::printf(" %11lldKB", static_cast<long long>(cap / 1024));
  }
  std::printf("\n");
  bench::PrintRule();

  bench::JsonRows rows;
  std::vector<std::vector<double>> ratios_per_cap(Capacities().size());
  for (const models::BenchmarkCell& cell : models::AllBenchmarkCells()) {
    const bench::CellMeasurement m = bench::MeasureCell(cell);
    if (!m.dp.status.ok() || !m.dp_rw.status.ok()) continue;
    std::printf("%-32s", bench::CellLabel(cell).c_str());
    for (std::size_t i = 0; i < Capacities().size(); ++i) {
      memsim::SimOptions options;
      options.onchip_bytes = Capacities()[i];
      const memsim::SimResult tflite =
          memsim::SimulateHierarchy(m.graph, m.tflite_schedule, options);
      // SERENITY knows the target capacity at compile time and deploys
      // whichever of its two configurations (with/without rewriting)
      // communicates less on this device.
      const memsim::SimResult with_rw = memsim::SimulateHierarchy(
          m.dp_rw.scheduled_graph, m.dp_rw.schedule, options);
      const memsim::SimResult without_rw = memsim::SimulateHierarchy(
          m.dp.scheduled_graph, m.dp.schedule, options);
      const memsim::SimResult& serenity =
          (!without_rw.feasible ||
           (with_rw.feasible &&
            with_rw.TotalTraffic() <= without_rw.TotalTraffic()))
              ? with_rw
              : without_rw;
      std::string text;
      std::string status = "ratio";
      if (!tflite.feasible || !serenity.feasible) {
        text = "INF";
        status = "INF";
      } else if (tflite.TotalTraffic() == 0 &&
                 serenity.TotalTraffic() == 0) {
        text = "N/A";
        status = "N/A";
      } else if (serenity.TotalTraffic() == 0) {
        text = "REMOVED";
        status = "REMOVED";
      } else {
        const double ratio =
            static_cast<double>(tflite.TotalTraffic()) /
            static_cast<double>(serenity.TotalTraffic());
        ratios_per_cap[i].push_back(ratio);
        char buffer[32];
        std::snprintf(buffer, sizeof(buffer), "%.2fx", ratio);
        text = buffer;
      }
      std::printf(" %13s", text.c_str());
      rows.Begin();
      rows.Field("cell", bench::CellLabel(cell));
      rows.Field("capacity_kb", Capacities()[i] / 1024);
      rows.Field("status", status);
      rows.Field("tflite_traffic_bytes", tflite.TotalTraffic());
      rows.Field("serenity_traffic_bytes", serenity.TotalTraffic());
      if (status == "ratio") {
        rows.Field("ratio", ratios_per_cap[i].back());
      }
    }
    std::printf("\n");
  }
  bench::PrintRule();
  std::printf("%-32s", "geomean (finite ratios)");
  for (std::size_t i = 0; i < ratios_per_cap.size(); ++i) {
    const auto& ratios = ratios_per_cap[i];
    if (ratios.empty()) {
      std::printf(" %13s", "-");
    } else {
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "%.2fx",
                    util::GeometricMean(ratios));
      std::printf(" %13s", buffer);
      rows.Begin();
      rows.Field("cell", std::string("geomean"));
      rows.Field("capacity_kb", Capacities()[i] / 1024);
      rows.Field("ratio", util::GeometricMean(ratios));
    }
  }
  std::printf("\n\npaper: geomean 1.76x at 256KB; several cells REMOVED "
              "(SERENITY eliminates the traffic)\n\n");
  if (!json_path.empty()) return rows.WriteTo(json_path);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  return PrintFigure(serenity::bench::JsonFlag(argc, argv)) ? 0 : 1;
}
