#include "core/partitioner.h"

#include <algorithm>

#include "graph/analysis.h"
#include "util/logging.h"

namespace serenity::core {

std::vector<graph::NodeId> FindCutNodes(const graph::Graph& graph) {
  const graph::ReachabilityBitsets reach = graph::BuildReachability(graph);
  const std::size_t n = static_cast<std::size_t>(graph.num_nodes());
  std::vector<graph::NodeId> cuts;
  for (std::size_t v = 0; v < n; ++v) {
    const auto& anc = reach.ancestors[v];
    const auto& desc = reach.descendants[v];
    if (anc.Count() + desc.Count() + 1 != n) continue;
    // Reject v if an edge goes from an ancestor directly to a descendant —
    // that activation would stay live across the would-be boundary.
    bool bypassed = false;
    for (const graph::Node& node : graph.nodes()) {
      if (!desc.Test(static_cast<std::size_t>(node.id))) continue;
      for (const graph::NodeId input : node.inputs) {
        if (anc.Test(static_cast<std::size_t>(input))) {
          bypassed = true;
          break;
        }
      }
      if (bypassed) break;
    }
    if (!bypassed) cuts.push_back(static_cast<graph::NodeId>(v));
  }
  return cuts;  // ids ascend, and ids are topological, so cuts are ordered
}

namespace {

// Builds the standalone graph for the original nodes with ids in
// (boundary, last]. `boundary` is the previous cut node feeding this
// segment, or kInvalidNode (-1) for the first segment.
Segment ExtractSegment(const graph::Graph& graph, graph::NodeId boundary,
                       graph::NodeId last, int index) {
  Segment segment;
  segment.subgraph.set_name(graph.name() + "/segment" + std::to_string(index));
  std::vector<graph::NodeId> remap(
      static_cast<std::size_t>(graph.num_nodes()), graph::kInvalidNode);
  // Map original buffer -> segment buffer lazily, so shared (aliased)
  // buffers stay shared inside the segment.
  std::vector<graph::BufferId> buffer_remap(
      static_cast<std::size_t>(graph.num_buffers()), graph::kInvalidBuffer);
  const auto map_buffer = [&](graph::BufferId b) {
    auto& mapped = buffer_remap[static_cast<std::size_t>(b)];
    if (mapped == graph::kInvalidBuffer) {
      mapped = segment.subgraph.AddBuffer(graph.buffer(b).size_bytes);
    }
    return mapped;
  };

  if (boundary != graph::kInvalidNode) {
    const graph::Node& orig = graph.node(boundary);
    graph::Node placeholder;
    placeholder.kind = graph::OpKind::kInput;
    placeholder.name = orig.name + "/boundary";
    placeholder.dtype = orig.dtype;
    placeholder.shape = orig.shape;
    placeholder.buffer = map_buffer(orig.buffer);
    const graph::NodeId new_id =
        segment.subgraph.AddNode(std::move(placeholder));
    remap[static_cast<std::size_t>(boundary)] = new_id;
    segment.orig_ids.push_back(boundary);
    segment.num_placeholders = 1;
  }

  for (graph::NodeId id = boundary + 1; id <= last; ++id) {
    const graph::Node& orig = graph.node(id);
    graph::Node copy = orig;
    copy.id = graph::kInvalidNode;
    copy.buffer = map_buffer(orig.buffer);
    copy.inputs.clear();
    for (const graph::NodeId input : orig.inputs) {
      const graph::NodeId mapped = remap[static_cast<std::size_t>(input)];
      SERENITY_CHECK_NE(mapped, graph::kInvalidNode)
          << "segment member " << orig.name
          << " consumes a value produced outside the segment boundary";
      copy.inputs.push_back(mapped);
    }
    const graph::NodeId new_id = segment.subgraph.AddNode(std::move(copy));
    remap[static_cast<std::size_t>(id)] = new_id;
    segment.orig_ids.push_back(id);
  }
  return segment;
}

}  // namespace

std::vector<int> Partition::SegmentSizes() const {
  std::vector<int> sizes;
  sizes.reserve(segments.size());
  for (const Segment& segment : segments) {
    sizes.push_back(segment.subgraph.num_nodes() - segment.num_placeholders);
  }
  return sizes;
}

Partition PartitionAtCuts(const graph::Graph& graph,
                          const PartitionOptions& options) {
  SERENITY_CHECK_GT(graph.num_nodes(), 0) << "cannot partition an empty graph";
  Partition partition;
  std::vector<graph::NodeId> candidates = FindCutNodes(graph);
  // The final node cannot start a new segment — it only ends the last one.
  if (!candidates.empty() && candidates.back() == graph.num_nodes() - 1) {
    candidates.pop_back();
  }
  // Coalescing. Node ids are topological and every node is comparable to
  // every cut, so the segment closed by cut c after previous kept cut p
  // contains exactly the ids in (p, c] — size c - p.
  //
  // Pass 1: cuts closer together than a minimum segment (e.g. the tail of
  // a linear op chain, where every node is a cut) collapse to the last cut
  // of the run — the natural "end of cell" boundary.
  std::vector<graph::NodeId> collapsed;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (i + 1 < candidates.size() &&
        candidates[i + 1] - candidates[i] < options.min_segment_nodes) {
      continue;  // superseded by the next cut in the run
    }
    collapsed.push_back(candidates[i]);
  }
  // Pass 2: drop boundaries that would still close a runt segment.
  std::vector<graph::NodeId> boundaries;
  graph::NodeId prev = -1;
  for (const graph::NodeId cut : collapsed) {
    if (cut - prev >= options.min_segment_nodes) {
      boundaries.push_back(cut);
      prev = cut;
    }
  }
  // A runt trailing segment merges backward into the last kept one.
  if (!boundaries.empty() &&
      graph.num_nodes() - 1 - boundaries.back() <
          options.min_segment_nodes &&
      graph.num_nodes() - 1 - boundaries.back() > 0) {
    boundaries.pop_back();
  }

  // Segments are id ranges, as in the coalescing: a cut's ancestors are
  // exactly the lower ids and its descendants the higher ones.
  boundaries.push_back(graph.num_nodes() - 1);  // closes the last segment
  graph::NodeId prev_cut = graph::kInvalidNode;
  for (const graph::NodeId cut : boundaries) {
    partition.segments.push_back(ExtractSegment(
        graph, prev_cut, cut, static_cast<int>(partition.segments.size())));
    prev_cut = cut;
  }
  return partition;
}

sched::Schedule CombineSegmentSchedules(
    const Partition& partition,
    const std::vector<sched::Schedule>& segment_schedules) {
  SERENITY_CHECK_EQ(partition.segments.size(), segment_schedules.size());
  sched::Schedule combined;
  for (std::size_t s = 0; s < partition.segments.size(); ++s) {
    const Segment& segment = partition.segments[s];
    const sched::Schedule& local = segment_schedules[s];
    SERENITY_CHECK_EQ(local.size(),
                      static_cast<std::size_t>(segment.subgraph.num_nodes()));
    for (const graph::NodeId local_id : local) {
      // Placeholders stand for the previous segment's cut node, which the
      // previous segment already emitted.
      if (local_id < segment.num_placeholders) continue;
      combined.push_back(
          segment.orig_ids[static_cast<std::size_t>(local_id)]);
    }
  }
  return combined;
}

}  // namespace serenity::core
