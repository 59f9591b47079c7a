// Quickstart: build an irregularly wired network, schedule it with
// SERENITY, and compare the peak activation footprint against the
// TensorFlow-Lite-style baseline order.
//
//   $ build/examples/quickstart
//
// Walks through the whole public API surface: GraphBuilder -> Pipeline ->
// footprint evaluation -> arena allocation.
#include <cstdio>

#include "alloc/arena_planner.h"
#include "core/pipeline.h"
#include "graph/builder.h"
#include "sched/baselines.h"
#include "sched/schedule.h"

namespace {

// A miniature NAS-style cell: one concat+conv block plus a skip branch.
serenity::graph::Graph BuildExampleNetwork() {
  using serenity::graph::TensorShape;
  serenity::graph::GraphBuilder b("quickstart");
  const auto input = b.Input(TensorShape{1, 32, 32, 3}, "image");
  const auto stem = b.Conv2d(input, 16, 3, /*stride=*/1,
                             serenity::graph::Padding::kSame, 1, "stem");
  // Three parallel branches of different depths.
  const auto b0 = b.Conv1x1(stem, 8, "branch0");
  const auto b1 = b.DepthwiseConv2d(stem, 3, 1,
                                    serenity::graph::Padding::kSame, 1,
                                    "branch1/dw");
  const auto b1p = b.Conv1x1(b1, 8, "branch1/pw");
  const auto b2 = b.DepthwiseConv2d(stem, 5, 1,
                                    serenity::graph::Padding::kSame, 1,
                                    "branch2/dw");
  const auto b2p = b.Conv1x1(b2, 8, "branch2/pw");
  // Concat feeding a conv: the pattern identity graph rewriting optimizes.
  const auto cat = b.Concat({b0, b1p, b2p}, "concat");
  const auto fuse = b.Conv1x1(cat, 24, "fuse");
  const auto skip = b.Conv1x1(stem, 24, "skip");
  (void)b.Add({fuse, skip}, "out");
  return std::move(b).Build();
}

double Kb(std::int64_t bytes) { return static_cast<double>(bytes) / 1024.0; }

}  // namespace

int main() {
  const serenity::graph::Graph network = BuildExampleNetwork();
  std::printf("network '%s': %d nodes, %d edges\n", network.name().c_str(),
              network.num_nodes(), network.num_edges());

  // Baseline: TFLite executes in declaration order.
  const auto tflite_order = serenity::sched::TfLiteOrderSchedule(network);
  const auto tflite_peak =
      serenity::sched::PeakFootprint(network, tflite_order);
  std::printf("TFLite order peak footprint : %8.1f KB\n", Kb(tflite_peak));

  // SERENITY without graph rewriting (pure memory-aware scheduling).
  serenity::core::PipelineOptions dp_only;
  dp_only.enable_rewriting = false;
  const auto dp_result = serenity::core::Pipeline(dp_only).Run(network);
  if (!dp_result.status.ok()) {
    std::fprintf(stderr, "scheduling failed: %s\n",
                 dp_result.status.ToString().c_str());
    return 1;
  }
  std::printf("SERENITY (DP) peak footprint: %8.1f KB  (%.2fx reduction)\n",
              Kb(dp_result.peak_bytes),
              static_cast<double>(tflite_peak) /
                  static_cast<double>(dp_result.peak_bytes));

  // Full SERENITY: identity graph rewriting + DP scheduling.
  const auto full_result = serenity::core::Pipeline().Run(network);
  if (!full_result.status.ok()) {
    std::fprintf(stderr, "scheduling failed: %s\n",
                 full_result.status.ToString().c_str());
    return 1;
  }
  std::printf("SERENITY (DP+rewriting)     : %8.1f KB  (%.2fx reduction)\n",
              Kb(full_result.peak_bytes),
              static_cast<double>(tflite_peak) /
                  static_cast<double>(full_result.peak_bytes));
  std::printf("rewriting applied %d pattern(s): %d -> %d nodes\n",
              full_result.rewrite_report.TotalPatterns(),
              full_result.rewrite_report.nodes_before,
              full_result.rewrite_report.nodes_after);

  // Map the schedule onto a flat arena, TFLite style.
  const auto plan = serenity::alloc::PlanArena(full_result.scheduled_graph,
                                               full_result.schedule);
  std::printf("arena size with allocator   : %8.1f KB (%zu placements)\n",
              Kb(plan.arena_bytes), plan.placements.size());

  std::printf("schedule (first 10 ops):\n");
  for (std::size_t i = 0; i < full_result.schedule.size() && i < 10; ++i) {
    const auto& node =
        full_result.scheduled_graph.node(full_result.schedule[i]);
    std::printf("  %2zu: %s\n", i, node.name.c_str());
  }
  return 0;
}
