// Divide-and-conquer graph partitioning (paper §3.2, Fig. 7).
//
// Irregularly wired networks from NAS and random generators are hourglass
// shaped: single-input single-output cells stacked in sequence. A *cut node*
// is a vertex v such that (a) every other node is an ancestor or descendant
// of v (the schedule must pass through a point where only v's output is in
// flight) and (b) no edge bypasses v from an ancestor to a descendant (so
// the segments really are memory-independent: at the instant after v
// executes, v's output is the only live activation apart from sink buffers).
//
// Segments between consecutive cut nodes are scheduled independently and
// concatenated; for hourglass graphs this preserves optimality (Wilken et
// al., 2000 — re-verified against whole-graph DP in the tests).
#ifndef SERENITY_CORE_PARTITIONER_H_
#define SERENITY_CORE_PARTITIONER_H_

#include <vector>

#include "graph/graph.h"
#include "sched/schedule.h"

namespace serenity::core {

// Cut nodes in topological order (node ids are topological by construction).
std::vector<graph::NodeId> FindCutNodes(const graph::Graph& graph);

struct Segment {
  // The segment as a standalone graph. For every segment after the first,
  // node 0 is a placeholder kInput standing for the previous cut node's
  // value (its buffer is live when the segment starts).
  graph::Graph subgraph;
  // Maps subgraph node id -> original graph node id. Placeholder inputs map
  // to the original cut node they stand for.
  std::vector<graph::NodeId> orig_ids;
  // Number of leading placeholder nodes (0 for the first segment, 1 after).
  int num_placeholders = 0;
};

struct Partition {
  std::vector<Segment> segments;

  // Sizes of the segments in original-node counts (the paper's
  // "62 = {21, 19, 22}" notation in Table 2).
  std::vector<int> SegmentSizes() const;
};

struct PartitionOptions {
  // Coalesce trivial segments: a boundary is kept only if the segment it
  // closes has at least this many nodes (linear op chains make every node
  // a cut; scheduling 1-node segments separately is pure overhead).
  // Merging never loses optimality — it only gives the DP a larger,
  // strictly more general subproblem.
  int min_segment_nodes = 4;
};

// Splits `graph` at its cut nodes. A graph with no internal cut nodes yields
// a single segment (the graph itself).
Partition PartitionAtCuts(const graph::Graph& graph,
                          const PartitionOptions& options = {});

// Concatenates per-segment schedules (over segment-local node ids) into a
// schedule of the original graph, dropping placeholder inputs.
sched::Schedule CombineSegmentSchedules(
    const Partition& partition,
    const std::vector<sched::Schedule>& segment_schedules);

}  // namespace serenity::core

#endif  // SERENITY_CORE_PARTITIONER_H_
