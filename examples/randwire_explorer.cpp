// Randomly wired network explorer: generate a Watts-Strogatz RandWire cell
// from command-line parameters, schedule it with SERENITY, and compare
// every baseline — the workflow of evaluating whether a candidate random
// wiring fits a target device.
//
//   $ build/examples/randwire_explorer [seed] [nodes] [channels] [dot_file]
//
// Passing a .dot path writes a Graphviz rendering of the wiring.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/pipeline.h"
#include "models/randwire.h"
#include "sched/baselines.h"
#include "sched/schedule.h"
#include "serialize/serialize.h"
#include "util/rng.h"
#include "util/stats.h"

namespace {

double Kb(std::int64_t bytes) { return static_cast<double>(bytes) / 1024.0; }

}  // namespace

int main(int argc, char** argv) {
  serenity::models::RandWireParams params;
  params.seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 7;
  params.num_nodes = argc > 2 ? std::atoi(argv[2]) : 24;
  params.channels = argc > 3 ? std::atoi(argv[3]) : 48;
  params.name = "randwire_explorer";

  const serenity::graph::Graph g = serenity::models::MakeRandWireCell(params);
  std::printf("RandWire WS(N=%d, K=%d, P=%.2f) seed=%llu: %d ops, %d "
              "edges\n\n", params.num_nodes, params.k, params.p,
              static_cast<unsigned long long>(params.seed), g.num_nodes(),
              g.num_edges());

  const struct {
    const char* name;
    serenity::sched::Schedule schedule;
  } baselines[] = {
      {"declaration order (TFLite)",
       serenity::sched::TfLiteOrderSchedule(g)},
      {"Kahn FIFO (breadth-first)", serenity::sched::KahnFifoSchedule(g)},
      {"DFS post-order", serenity::sched::DfsPostorderSchedule(g)},
      {"memory-greedy heuristic", serenity::sched::GreedyMemorySchedule(g)},
  };
  std::printf("%-28s %12s\n", "scheduler", "peak KB");
  for (const auto& baseline : baselines) {
    std::printf("%-28s %12.1f\n", baseline.name,
                Kb(serenity::sched::PeakFootprint(g, baseline.schedule)));
  }

  const auto serenity_result = serenity::core::Pipeline().Run(g);
  if (!serenity_result.status.ok()) {
    std::fprintf(stderr, "SERENITY failed: %s\n",
                 serenity_result.status.ToString().c_str());
    return 1;
  }
  std::printf("%-28s %12.1f   (optimal, %.3fs)\n", "SERENITY",
              Kb(serenity_result.peak_bytes), serenity_result.total_seconds);

  // How lucky would a random order get? (cf. paper Figure 3(b))
  serenity::util::Rng rng(1);
  std::vector<double> samples;
  for (int i = 0; i < 2000; ++i) {
    samples.push_back(static_cast<double>(serenity::sched::PeakFootprint(
        g, serenity::sched::RandomTopologicalSchedule(g, rng))));
  }
  std::printf("\nrandom-schedule peak: p10 %.1f KB / median %.1f KB / p90 "
              "%.1f KB over 2000 draws\n",
              serenity::util::Percentile(samples, 10) / 1024.0,
              serenity::util::Percentile(samples, 50) / 1024.0,
              serenity::util::Percentile(samples, 90) / 1024.0);

  if (argc > 4) {
    const std::string path = argv[4];
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    const std::string dot = serenity::serialize::ToDot(g);
    std::fwrite(dot.data(), 1, dot.size(), f);
    std::fclose(f);
    std::printf("wrote wiring diagram to %s\n", path.c_str());
  }
  return 0;
}
