// serenity_cli — command-line front end for the library, working on graphs
// persisted in the .serenity text format (see serialize/serialize.h).
//
//   serenity_cli info <graph>               structure, MACs, parameters
//   serenity_cli schedule <graph> [budget] [plan_out]
//                                           full pipeline; optional hard
//                                           budget in KB to validate
//                                           against, optional execution-
//                                           plan output file
//   serenity_cli rewrite <graph> <out>      apply identity graph rewriting
//   serenity_cli dot <graph> <out.dot>      Graphviz export
//   serenity_cli demo <out>                 write a sample graph to play with
//
// Exit code 0 on success; 2 when a requested budget cannot be met.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "alloc/arena_planner.h"
#include "core/pipeline.h"
#include "models/swiftnet.h"
#include "rewrite/rewriter.h"
#include "sched/baselines.h"
#include "sched/schedule.h"
#include "serialize/plan.h"
#include "serialize/serialize.h"

namespace {

double Kb(std::int64_t bytes) { return static_cast<double>(bytes) / 1024.0; }

int CmdInfo(const std::string& path) {
  const serenity::graph::Graph g = serenity::serialize::LoadFromFile(path);
  std::printf("graph    : %s\n", g.name().c_str());
  std::printf("ops      : %d\n", g.num_nodes());
  std::printf("edges    : %d\n", g.num_edges());
  std::printf("buffers  : %d\n", g.num_buffers());
  std::printf("MACs     : %lld\n",
              static_cast<long long>(serenity::graph::CountMacs(g)));
  std::printf("weights  : %lld\n",
              static_cast<long long>(serenity::graph::CountWeights(g)));
  std::printf("sources  : %zu, sinks: %zu\n", g.Sources().size(),
              g.Sinks().size());
  std::int64_t activations = 0;
  for (serenity::graph::BufferId b = 0; b < g.num_buffers(); ++b) {
    activations += g.buffer(b).size_bytes;
  }
  std::printf("sum of all activations: %.1f KB\n", Kb(activations));
  return 0;
}

int CmdSchedule(const std::string& path, std::int64_t budget_kb,
                const std::string& plan_out) {
  const serenity::graph::Graph g = serenity::serialize::LoadFromFile(path);
  const auto baseline = serenity::sched::TfLiteOrderSchedule(g);
  std::printf("declaration-order peak : %10.1f KB\n",
              Kb(serenity::sched::PeakFootprint(g, baseline)));

  const auto result = serenity::core::Pipeline().Run(g);
  if (!result.status.ok()) {
    std::fprintf(stderr, "scheduling failed: %s\n",
                 result.status.ToString().c_str());
    return 1;
  }
  std::printf("SERENITY peak          : %10.1f KB (%.3fs, %llu states)\n",
              Kb(result.peak_bytes), result.total_seconds,
              static_cast<unsigned long long>(result.states_expanded));
  const auto arena = serenity::alloc::PlanArena(result.scheduled_graph,
                                                result.schedule);
  std::printf("SERENITY arena         : %10.1f KB\n", Kb(arena.arena_bytes));
  std::printf("schedule:\n");
  for (std::size_t i = 0; i < result.schedule.size(); ++i) {
    std::printf("  %3zu  %s\n", i,
                result.scheduled_graph.node(result.schedule[i]).name.c_str());
  }
  if (!plan_out.empty()) {
    serenity::serialize::SavePlanToFile(
        serenity::serialize::MakePlan(result.scheduled_graph,
                                      result.schedule),
        plan_out);
    std::printf("wrote execution plan to %s\n", plan_out.c_str());
  }
  if (budget_kb > 0) {
    const bool fits = arena.arena_bytes <= budget_kb * 1024;
    std::printf("budget %lld KB: %s\n", static_cast<long long>(budget_kb),
                fits ? "FITS" : "DOES NOT FIT");
    return fits ? 0 : 2;
  }
  return 0;
}

int CmdRewrite(const std::string& in_path, const std::string& out_path) {
  const serenity::graph::Graph g = serenity::serialize::LoadFromFile(in_path);
  const auto result = serenity::rewrite::RewriteGraph(g);
  serenity::serialize::SaveToFile(result.graph, out_path);
  std::printf("applied %d pattern(s): %d -> %d nodes; wrote %s\n",
              result.report.TotalPatterns(), result.report.nodes_before,
              result.report.nodes_after, out_path.c_str());
  return 0;
}

int CmdDot(const std::string& in_path, const std::string& out_path) {
  const serenity::graph::Graph g = serenity::serialize::LoadFromFile(in_path);
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  const std::string dot = serenity::serialize::ToDot(g);
  std::fwrite(dot.data(), 1, dot.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

int CmdDemo(const std::string& out_path) {
  serenity::serialize::SaveToFile(serenity::models::MakeSwiftNet(), out_path);
  std::printf("wrote the 62-node SwiftNet benchmark to %s\n",
              out_path.c_str());
  return 0;
}

int CmdValidate(const std::string& path) {
  const serenity::graph::Graph g = serenity::serialize::LoadFromFile(path);
  // LoadFromFile already dies on structural problems; report soft checks.
  const auto problems = g.Validate();
  for (const auto& p : problems) std::fprintf(stderr, "%s\n", p.c_str());
  std::printf("%s: %s\n", path.c_str(),
              problems.empty() ? "valid" : "INVALID");
  return problems.empty() ? 0 : 1;
}

void Usage() {
  std::fprintf(stderr,
               "usage: serenity_cli <command> ...\n"
               "  info <graph>                      structure and statistics\n"
               "  validate <graph>                  structural checks\n"
               "  schedule <graph> [budget_kb] [plan_out]\n"
               "  rewrite <graph> <out>             identity graph rewriting\n"
               "  dot <graph> <out.dot>             Graphviz export\n"
               "  demo <out>                        write a sample network\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    Usage();
    return 64;
  }
  const std::string command = argv[1];
  if (command == "info") return CmdInfo(argv[2]);
  if (command == "validate") return CmdValidate(argv[2]);
  if (command == "schedule") {
    return CmdSchedule(argv[2], argc > 3 ? std::atoll(argv[3]) : 0,
                       argc > 4 ? argv[4] : "");
  }
  if (command == "rewrite" && argc > 3) return CmdRewrite(argv[2], argv[3]);
  if (command == "dot" && argc > 3) return CmdDot(argv[2], argv[3]);
  if (command == "demo") return CmdDemo(argv[2]);
  Usage();
  return 64;
}
