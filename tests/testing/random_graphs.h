// Random-graph helpers and input sets shared by the property-based tests.
#ifndef SERENITY_TESTS_TESTING_RANDOM_GRAPHS_H_
#define SERENITY_TESTS_TESTING_RANDOM_GRAPHS_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "graph/builder.h"
#include "graph/graph.h"
#include "models/zoo.h"
#include "sched/baselines.h"
#include "sched/schedule.h"
#include "util/logging.h"
#include "util/rng.h"

namespace serenity::testing {

struct RandomDagOptions {
  int num_ops = 8;         // ops beyond the input
  int max_channels = 4;    // tensor sizes vary within [1, max_channels]
  int spatial = 16;        // 16x16xC float32 -> C KB
  double extra_edge_p = 0.3;  // chance of a second operand (add/concat)
  bool join_sinks = true;  // concat all leftover sinks into one output
};

// A connected random DAG of conv/relu/add/concat ops. Insertion order is a
// valid topological order; every node is reachable from the input.
inline graph::Graph RandomDag(util::Rng& rng, const RandomDagOptions& opts,
                              const std::string& name) {
  graph::GraphBuilder b(name);
  std::vector<graph::NodeId> pool;
  pool.push_back(b.Input(
      graph::TensorShape{1, opts.spatial, opts.spatial,
                         rng.NextInt(1, opts.max_channels)},
      "in"));
  for (int i = 0; i < opts.num_ops; ++i) {
    const graph::NodeId src = pool[static_cast<std::size_t>(
        rng.NextInt(0, static_cast<int>(pool.size()) - 1))];
    const int out_c = rng.NextInt(1, opts.max_channels);
    const int pick = rng.NextInt(0, 3);
    graph::NodeId id = graph::kInvalidNode;
    if (pick == 0 || pool.size() < 2) {
      id = b.Conv1x1(src, out_c, "conv" + std::to_string(i));
    } else if (pick == 1) {
      id = b.Relu(src, "relu" + std::to_string(i));
    } else {
      graph::NodeId other = pool[static_cast<std::size_t>(
          rng.NextInt(0, static_cast<int>(pool.size()) - 1))];
      if (other == src) {
        id = b.Conv1x1(src, out_c, "conv" + std::to_string(i));
      } else if (pick == 2 &&
                 b.shape(src).c == b.shape(other).c) {
        id = b.Add({src, other}, "add" + std::to_string(i));
      } else {
        id = b.Concat({src, other}, "cat" + std::to_string(i));
      }
    }
    pool.push_back(id);
  }
  if (opts.join_sinks) {
    std::vector<graph::NodeId> frontier;
    for (const graph::NodeId id : pool) {
      if (b.graph().consumers(id).empty()) frontier.push_back(id);
    }
    if (frontier.size() >= 2) (void)b.Concat(frontier, "out");
  }
  return std::move(b).Build();
}

// A graph whose exact search takes seconds: 8 parallel conv chains of 5
// hops each off one input, joined by one concat. The DP's level widths are
// the product of per-chain positions (6^8 + 1 = 1,679,617 states), under
// the 2,000,000-state cap. Every hop's output is wider than
// its input, so every hop grows the footprint and the eager rule (which
// takes only steps that do not) never collapses a chain.
inline graph::Graph SlowToPlanGraph() {
  graph::GraphBuilder b("slow_to_plan");
  const graph::NodeId in = b.Input(graph::TensorShape{1, 8, 8, 4}, "in");
  std::vector<graph::NodeId> ends;
  for (int chain = 0; chain < 8; ++chain) {
    graph::NodeId x = in;
    for (int hop = 0; hop < 5; ++hop) {
      x = b.Conv1x1(x, 5 + hop,
                    std::to_string(chain) + "_" + std::to_string(hop));
    }
    ends.push_back(x);
  }
  (void)b.Concat(ends, "join");
  return std::move(b).Build();
}

// A structurally identical copy of `g` with nodes inserted in a random
// valid topological order, fresh names, and remapped node/buffer ids — the
// builder-bookkeeping relabeling CanonicalGraphHash must be invariant
// under. Preserves buffer sharing (aliasing ops keep aliasing the same
// remapped buffer) and operand order.
inline graph::Graph RelabelIsomorphic(const graph::Graph& g, util::Rng& rng,
                                      const std::string& name) {
  const int n = g.num_nodes();
  // Indegree over *distinct* producers, matching consumers()'s collapsed
  // duplicate entries.
  std::vector<int> indegree(static_cast<std::size_t>(n), 0);
  for (graph::NodeId id = 0; id < n; ++id) {
    std::vector<graph::NodeId> distinct = g.node(id).inputs;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    indegree[static_cast<std::size_t>(id)] =
        static_cast<int>(distinct.size());
  }

  graph::Graph out(name);
  std::vector<graph::NodeId> node_map(static_cast<std::size_t>(n),
                                      graph::kInvalidNode);
  std::vector<graph::BufferId> buffer_map(
      static_cast<std::size_t>(g.num_buffers()), graph::kInvalidBuffer);
  std::vector<graph::NodeId> ready;
  for (graph::NodeId id = 0; id < n; ++id) {
    if (indegree[static_cast<std::size_t>(id)] == 0) ready.push_back(id);
  }
  int emitted = 0;
  while (!ready.empty()) {
    const std::size_t pick = static_cast<std::size_t>(
        rng.NextBounded(static_cast<std::uint64_t>(ready.size())));
    const graph::NodeId orig = ready[pick];
    ready[pick] = ready.back();
    ready.pop_back();

    graph::Node node = g.node(orig);
    node.id = graph::kInvalidNode;
    node.name = "relabeled" + std::to_string(emitted++);
    for (graph::NodeId& input : node.inputs) {
      input = node_map[static_cast<std::size_t>(input)];
    }
    graph::BufferId& mapped =
        buffer_map[static_cast<std::size_t>(node.buffer)];
    if (mapped == graph::kInvalidBuffer) {
      mapped = out.AddBuffer(g.buffer(node.buffer).size_bytes);
    }
    node.buffer = mapped;
    node_map[static_cast<std::size_t>(orig)] = out.AddNode(std::move(node));
    for (const graph::NodeId consumer : g.consumers(orig)) {
      if (--indegree[static_cast<std::size_t>(consumer)] == 0) {
        ready.push_back(consumer);
      }
    }
  }
  // Keep any never-referenced buffers so buffer counts stay equal.
  for (graph::BufferId b = 0; b < g.num_buffers(); ++b) {
    if (buffer_map[static_cast<std::size_t>(b)] == graph::kInvalidBuffer) {
      (void)out.AddBuffer(g.buffer(b).size_bytes);
    }
  }
  out.ValidateOrDie();
  return out;
}

// A graph with a schedule to replay over it.
struct ScheduledGraph {
  std::string label;
  graph::Graph graph;
  sched::Schedule schedule;
};

// The inputs the arena planner and the hierarchy simulator meet in use and
// some past them: the nine zoo cells in TFLite order and in Pipeline order
// (over the graph Pipeline scheduled, rewrites included), and three seeded
// 100-400-op random DAGs in TFLite and in a random topological order.
inline std::vector<ScheduledGraph> ZooAndLargeDagInputs() {
  std::vector<ScheduledGraph> inputs;
  for (const models::BenchmarkCell& cell : models::AllBenchmarkCells()) {
    const std::string label = cell.group + " / " + cell.name;
    graph::Graph g = cell.factory();
    sched::Schedule tflite = sched::TfLiteOrderSchedule(g);
    inputs.push_back({label + " (TFLite)", g, std::move(tflite)});
    core::PipelineResult planned = core::Pipeline().Run(g);
    SERENITY_CHECK(planned.status.ok()) << planned.status.ToString();
    inputs.push_back({label + " (Pipeline)",
                      std::move(planned.scheduled_graph),
                      std::move(planned.schedule)});
  }
  util::Rng rng(20261019);
  for (const int num_ops : {100, 250, 400}) {
    RandomDagOptions opts;
    opts.num_ops = num_ops;
    opts.max_channels = 6;
    opts.extra_edge_p = 0.4;
    const std::string label = "random DAG / " + std::to_string(num_ops);
    graph::Graph g = RandomDag(rng, opts, "large" + std::to_string(num_ops));
    sched::Schedule tflite = sched::TfLiteOrderSchedule(g);
    sched::Schedule random = sched::RandomTopologicalSchedule(g, rng);
    inputs.push_back({label + " (TFLite)", g, std::move(tflite)});
    inputs.push_back({label + " (random)", std::move(g), std::move(random)});
  }
  return inputs;
}

}  // namespace serenity::testing

#endif  // SERENITY_TESTS_TESTING_RANDOM_GRAPHS_H_
