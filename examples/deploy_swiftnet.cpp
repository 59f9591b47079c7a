// Deploying SwiftNet onto a memory-capped edge device — the paper's
// motivating scenario (§2.2): a SparkFun Edge class board with 250KB of
// weight/activation memory and no memory hierarchy to fall back on.
//
//   $ build/examples/deploy_swiftnet [budget_kb]
//
// Walks the full SERENITY pipeline, checks the resulting arena against the
// device budget, then actually *runs* an inference out of that arena with
// the plan-driven ArenaExecutor — zero per-inference heap allocation, with
// the measured touched peak certified against the planned arena size and
// the outputs certified bit-identical to the reference executor. Finally
// reports what the TensorFlow-Lite-style baseline would have needed,
// including the off-chip traffic both would generate on a device that
// *does* have a small on-chip SRAM backed by DRAM.
#include <cstdio>
#include <cstdlib>

#include "alloc/arena_planner.h"
#include "core/pipeline.h"
#include "memsim/hierarchy_sim.h"
#include "models/swiftnet.h"
#include "runtime/arena_executor.h"
#include "runtime/executor.h"
#include "sched/baselines.h"
#include "sched/schedule.h"
#include "serialize/plan.h"
#include "testing/runtime_inputs.h"
#include "testing/sink_compare.h"
#include "util/rng.h"

namespace {

double Kb(std::int64_t bytes) { return static_cast<double>(bytes) / 1024.0; }

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t budget_kb = argc > 1 ? std::atoll(argv[1]) : 250;
  const std::int64_t budget = budget_kb * 1024;

  const serenity::graph::Graph network = serenity::models::MakeSwiftNet();
  std::printf("deploying '%s' (%d nodes) under a %lld KB activation "
              "budget\n\n", network.name().c_str(), network.num_nodes(),
              static_cast<long long>(budget_kb));

  // --- Baseline: what a declaration-order runtime needs ---
  const auto baseline_order = serenity::sched::TfLiteOrderSchedule(network);
  const auto baseline_arena =
      serenity::alloc::PlanArena(network, baseline_order);
  std::printf("TFLite-style baseline arena : %8.1f KB  -> %s\n",
              Kb(baseline_arena.arena_bytes),
              baseline_arena.arena_bytes <= budget ? "fits" : "DOES NOT FIT");

  // --- SERENITY ---
  serenity::core::PipelineOptions options;
  options.soft_budget.step_timeout_seconds = 1.0;
  const auto result = serenity::core::Pipeline(options).Run(network);
  if (!result.status.ok()) {
    std::fprintf(stderr, "scheduling failed: %s\n",
                 result.status.ToString().c_str());
    return 1;
  }
  const auto plan =
      serenity::serialize::MakePlan(result.scheduled_graph, result.schedule);
  std::printf("SERENITY arena              : %8.1f KB  -> %s\n",
              Kb(plan.arena.arena_bytes),
              plan.arena.arena_bytes <= budget ? "fits" : "DOES NOT FIT");
  std::printf("  rewriting: %d pattern(s), %d -> %d nodes; "
              "partitions of sizes: ",
              result.rewrite_report.TotalPatterns(),
              result.rewrite_report.nodes_before,
              result.rewrite_report.nodes_after);
  for (const int s : result.segment_sizes) std::printf("%d ", s);
  std::printf("\n  scheduling took %.3f s (%llu DP states)\n\n",
              result.total_seconds,
              static_cast<unsigned long long>(result.states_expanded));

  // --- Execute the plan: this is what the device actually runs ---
  serenity::runtime::ArenaExecutorOptions exec_options;
  exec_options.measure_touched_peak = true;
  serenity::runtime::ArenaExecutor device(result.scheduled_graph, plan,
                                          exec_options);
  const auto inputs =
      serenity::testing::RandomInputsFor(result.scheduled_graph, 2020);
  device.Run(inputs);
  std::printf("inference out of the planned arena:\n");
  std::printf("  planned arena %.1f KB, touched peak %.1f KB -> %s\n",
              Kb(device.arena_bytes()), Kb(device.touched_peak_bytes()),
              device.touched_peak_bytes() == device.arena_bytes()
                  ? "measured == planned"
                  : "MEASURED PEAK DIVERGES");
  serenity::runtime::ReferenceExecutor reference(result.scheduled_graph);
  reference.Run(inputs, result.schedule);
  const std::string divergence = serenity::testing::DescribeSinkDivergence(
      device.SinkValues(), reference.SinkValues());
  std::printf("  sink outputs vs reference executor: %s\n\n",
              divergence.empty() ? "bit-identical"
                                 : ("DIVERGED: " + divergence).c_str());
  if (device.touched_peak_bytes() != device.arena_bytes() ||
      !divergence.empty()) {
    return 1;
  }

  // --- Largest resident tensors at the peak step ---
  const auto trace = serenity::sched::EvaluateFootprint(
      result.scheduled_graph, result.schedule);
  std::size_t peak_step = 0;
  for (std::size_t i = 0; i < trace.peak_at_step.size(); ++i) {
    if (trace.peak_at_step[i] == trace.peak_bytes) peak_step = i;
  }
  std::printf("peak occurs at step %zu/%zu, op '%s'\n", peak_step,
              result.schedule.size(),
              result.scheduled_graph.node(result.schedule[peak_step])
                  .name.c_str());

  // --- Devices with a small SRAM + DRAM: off-chip traffic ---
  std::printf("\noff-chip traffic if the device has on-chip SRAM + DRAM "
              "(Belady replacement):\n");
  std::printf("  %10s %16s %16s\n", "SRAM", "baseline", "SERENITY");
  for (const std::int64_t kb : {64, 128, 192, 256}) {
    serenity::memsim::SimOptions sim;
    sim.onchip_bytes = kb * 1024;
    const auto base =
        serenity::memsim::SimulateHierarchy(network, baseline_order, sim);
    const auto ours = serenity::memsim::SimulateHierarchy(
        result.scheduled_graph, result.schedule, sim);
    std::printf("  %8lldKB %13.1fKB %13.1fKB%s\n",
                static_cast<long long>(kb), Kb(base.TotalTraffic()),
                Kb(ours.TotalTraffic()),
                ours.TotalTraffic() == 0 ? "  (eliminated)" : "");
  }
  return plan.arena.arena_bytes <= budget ? 0 : 2;
}
