#include "graph/analysis.h"

#include <algorithm>

namespace serenity::graph {

AdjacencyBitsets BuildAdjacency(const Graph& graph) {
  const std::size_t n = static_cast<std::size_t>(graph.num_nodes());
  AdjacencyBitsets adj;
  adj.preds.assign(n, util::Bitset64(n));
  adj.succs.assign(n, util::Bitset64(n));
  for (const Node& node : graph.nodes()) {
    for (NodeId input : node.inputs) {
      adj.preds[static_cast<std::size_t>(node.id)].Set(
          static_cast<std::size_t>(input));
      adj.succs[static_cast<std::size_t>(input)].Set(
          static_cast<std::size_t>(node.id));
    }
  }
  return adj;
}

ReachabilityBitsets BuildReachability(const Graph& graph) {
  const std::size_t n = static_cast<std::size_t>(graph.num_nodes());
  ReachabilityBitsets reach;
  reach.ancestors.assign(n, util::Bitset64(n));
  reach.descendants.assign(n, util::Bitset64(n));
  // Insertion order is topological (enforced by Graph::AddNode), so a single
  // forward pass accumulates ancestors and a backward pass descendants.
  for (const Node& node : graph.nodes()) {
    auto& anc = reach.ancestors[static_cast<std::size_t>(node.id)];
    for (NodeId input : node.inputs) {
      anc |= reach.ancestors[static_cast<std::size_t>(input)];
      anc.Set(static_cast<std::size_t>(input));
    }
  }
  for (int id = graph.num_nodes() - 1; id >= 0; --id) {
    auto& desc = reach.descendants[static_cast<std::size_t>(id)];
    for (NodeId consumer : graph.consumers(static_cast<NodeId>(id))) {
      desc |= reach.descendants[static_cast<std::size_t>(consumer)];
      desc.Set(static_cast<std::size_t>(consumer));
    }
  }
  return reach;
}

BufferUseTable BufferUseTable::Build(const Graph& graph) {
  const std::size_t num_nodes = static_cast<std::size_t>(graph.num_nodes());
  const std::size_t num_buffers =
      static_cast<std::size_t>(graph.num_buffers());
  BufferUseTable table;
  table.buffers.assign(num_buffers, BufferUse{});
  for (std::size_t b = 0; b < num_buffers; ++b) {
    table.buffers[b].size_bytes =
        graph.buffer(static_cast<BufferId>(b)).size_bytes;
    table.buffers[b].touchers = util::Bitset64(num_nodes);
  }
  table.read_buffers.assign(num_nodes, {});
  table.touched_buffers.assign(num_nodes, {});

  for (const Node& node : graph.nodes()) {
    const std::size_t id = static_cast<std::size_t>(node.id);
    BufferUse& own = table.buffers[static_cast<std::size_t>(node.buffer)];
    own.writers.push_back(node.id);
    own.touchers.Set(id);

    auto& reads = table.read_buffers[id];
    for (NodeId input : node.inputs) {
      const BufferId rb = graph.node(input).buffer;
      if (std::find(reads.begin(), reads.end(), rb) == reads.end()) {
        reads.push_back(rb);
        BufferUse& use = table.buffers[static_cast<std::size_t>(rb)];
        use.readers.push_back(node.id);
        use.touchers.Set(id);
      }
    }
    auto& touched = table.touched_buffers[id];
    touched = reads;
    if (std::find(touched.begin(), touched.end(), node.buffer) ==
        touched.end()) {
      touched.push_back(node.buffer);
    }
  }
  for (BufferUse& use : table.buffers) {
    use.is_sink = use.readers.empty();
  }
  return table;
}

std::int64_t BufferUseTable::PeakFloorBytes() const {
  std::int64_t floor_bytes = 0;
  for (const std::vector<BufferId>& touched : touched_buffers) {
    std::int64_t step_bytes = 0;
    for (const BufferId b : touched) {
      step_bytes += buffers[static_cast<std::size_t>(b)].size_bytes;
    }
    floor_bytes = std::max(floor_bytes, step_bytes);
  }
  return floor_bytes;
}

}  // namespace serenity::graph
