#include "sched/baselines.h"

#include <algorithm>
#include <deque>
#include <numeric>

#include "util/logging.h"

namespace serenity::sched {

namespace {

std::vector<int> InDegrees(const graph::Graph& graph) {
  std::vector<int> indegree(static_cast<std::size_t>(graph.num_nodes()), 0);
  for (const graph::Node& node : graph.nodes()) {
    indegree[static_cast<std::size_t>(node.id)] =
        static_cast<int>(node.inputs.size());
  }
  return indegree;
}

}  // namespace

Schedule TfLiteOrderSchedule(const graph::Graph& graph) {
  // Graph::AddNode enforces topological insertion order, so declaration
  // order is itself a valid execution order — exactly TFLite's behaviour for
  // converter-produced models.
  Schedule schedule(static_cast<std::size_t>(graph.num_nodes()));
  std::iota(schedule.begin(), schedule.end(), 0);
  return schedule;
}

Schedule KahnFifoSchedule(const graph::Graph& graph) {
  std::vector<int> indegree = InDegrees(graph);
  std::deque<graph::NodeId> ready;
  for (const graph::Node& node : graph.nodes()) {
    if (node.inputs.empty()) ready.push_back(node.id);
  }
  Schedule schedule;
  schedule.reserve(static_cast<std::size_t>(graph.num_nodes()));
  while (!ready.empty()) {
    const graph::NodeId id = ready.front();
    ready.pop_front();
    schedule.push_back(id);
    for (const graph::NodeId consumer : graph.consumers(id)) {
      if (--indegree[static_cast<std::size_t>(consumer)] == 0) {
        ready.push_back(consumer);
      }
    }
  }
  SERENITY_CHECK_EQ(schedule.size(),
                    static_cast<std::size_t>(graph.num_nodes()))
      << "cycle detected in graph '" << graph.name() << "'";
  return schedule;
}

Schedule DfsPostorderSchedule(const graph::Graph& graph) {
  // Iterative DFS from sinks over the reversed graph; emitting a node after
  // all of its inputs yields a topological order biased toward finishing one
  // operand chain before starting the next.
  const std::size_t n = static_cast<std::size_t>(graph.num_nodes());
  std::vector<char> visited(n, 0);
  Schedule schedule;
  schedule.reserve(n);
  // enter=0 phase pushes children; enter=1 phase emits the node.
  std::vector<std::pair<graph::NodeId, int>> stack;
  for (const graph::NodeId sink : graph.Sinks()) {
    stack.emplace_back(sink, 0);
    while (!stack.empty()) {
      auto [id, phase] = stack.back();
      stack.pop_back();
      const std::size_t uid = static_cast<std::size_t>(id);
      if (phase == 1) {
        schedule.push_back(id);
        continue;
      }
      if (visited[uid]) continue;
      visited[uid] = 1;
      stack.emplace_back(id, 1);
      const auto& inputs = graph.node(id).inputs;
      // Push in reverse so the first operand's subtree completes first.
      for (auto it = inputs.rbegin(); it != inputs.rend(); ++it) {
        if (!visited[static_cast<std::size_t>(*it)]) {
          stack.emplace_back(*it, 0);
        }
      }
    }
  }
  SERENITY_CHECK_EQ(schedule.size(), n);
  return schedule;
}

Schedule GreedyMemorySchedule(const graph::Graph& graph) {
  return GreedyMemorySchedule(graph, graph::BufferUseTable::Build(graph));
}

Schedule GreedyMemorySchedule(const graph::Graph& graph,
                              const graph::BufferUseTable& table) {
  const std::size_t n = static_cast<std::size_t>(graph.num_nodes());
  std::vector<int> indegree = InDegrees(graph);
  std::vector<graph::NodeId> ready;
  for (const graph::Node& node : graph.nodes()) {
    if (node.inputs.empty()) ready.push_back(node.id);
  }
  std::vector<int> remaining_uses(table.buffers.size());
  for (std::size_t b = 0; b < table.buffers.size(); ++b) {
    remaining_uses[b] = static_cast<int>(table.buffers[b].writers.size() +
                                         table.buffers[b].readers.size());
  }
  std::vector<bool> allocated(table.buffers.size(), false);

  Schedule schedule;
  schedule.reserve(n);
  while (!ready.empty()) {
    // Score each candidate by (net footprint delta, allocation spike, id).
    std::size_t best_index = 0;
    std::int64_t best_delta = 0;
    std::int64_t best_spike = 0;
    for (std::size_t i = 0; i < ready.size(); ++i) {
      const graph::NodeId id = ready[i];
      const std::size_t uid = static_cast<std::size_t>(id);
      const graph::BufferId own = graph.node(id).buffer;
      const std::int64_t spike =
          allocated[static_cast<std::size_t>(own)]
              ? 0
              : table.buffers[static_cast<std::size_t>(own)].size_bytes;
      std::int64_t freed = 0;
      for (const graph::BufferId b : table.touched_buffers[uid]) {
        const std::size_t ub = static_cast<std::size_t>(b);
        int uses = (graph.node(id).buffer == b) ? 1 : 0;
        const auto& reads = table.read_buffers[uid];
        if (std::find(reads.begin(), reads.end(), b) != reads.end()) ++uses;
        if (remaining_uses[ub] == uses && !table.buffers[ub].is_sink) {
          freed += table.buffers[ub].size_bytes;
        }
      }
      const std::int64_t delta = spike - freed;
      if (i == 0 || delta < best_delta ||
          (delta == best_delta && spike < best_spike)) {
        best_index = i;
        best_delta = delta;
        best_spike = spike;
      }
    }
    const graph::NodeId id = ready[best_index];
    ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(best_index));
    const std::size_t uid = static_cast<std::size_t>(id);
    const graph::BufferId own = graph.node(id).buffer;
    allocated[static_cast<std::size_t>(own)] = true;
    for (const graph::BufferId b : table.touched_buffers[uid]) {
      const std::size_t ub = static_cast<std::size_t>(b);
      int uses = (own == b) ? 1 : 0;
      const auto& reads = table.read_buffers[uid];
      if (std::find(reads.begin(), reads.end(), b) != reads.end()) ++uses;
      remaining_uses[ub] -= uses;
    }
    schedule.push_back(id);
    for (const graph::NodeId consumer : graph.consumers(id)) {
      if (--indegree[static_cast<std::size_t>(consumer)] == 0) {
        ready.push_back(consumer);
      }
    }
  }
  SERENITY_CHECK_EQ(schedule.size(), n);
  return schedule;
}

Schedule RandomTopologicalSchedule(const graph::Graph& graph,
                                   util::Rng& rng) {
  std::vector<int> indegree = InDegrees(graph);
  std::vector<graph::NodeId> ready;
  for (const graph::Node& node : graph.nodes()) {
    if (node.inputs.empty()) ready.push_back(node.id);
  }
  Schedule schedule;
  schedule.reserve(static_cast<std::size_t>(graph.num_nodes()));
  while (!ready.empty()) {
    const std::size_t pick = static_cast<std::size_t>(
        rng.NextBounded(static_cast<std::uint64_t>(ready.size())));
    const graph::NodeId id = ready[pick];
    ready[pick] = ready.back();
    ready.pop_back();
    schedule.push_back(id);
    for (const graph::NodeId consumer : graph.consumers(id)) {
      if (--indegree[static_cast<std::size_t>(consumer)] == 0) {
        ready.push_back(consumer);
      }
    }
  }
  SERENITY_CHECK_EQ(schedule.size(),
                    static_cast<std::size_t>(graph.num_nodes()));
  return schedule;
}

}  // namespace serenity::sched
