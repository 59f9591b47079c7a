// Structural graph analyses shared by the scheduler stack: bitset adjacency,
// transitive reachability (ancestors/descendants), and the buffer-use table
// that encodes the paper's activation liveness model (§3.1, Fig. 6).
#ifndef SERENITY_GRAPH_ANALYSIS_H_
#define SERENITY_GRAPH_ANALYSIS_H_

#include <vector>

#include "graph/graph.h"
#include "util/bitset.h"

namespace serenity::graph {

// Direct predecessor/successor sets as node-indexed bitsets.
struct AdjacencyBitsets {
  std::vector<util::Bitset64> preds;
  std::vector<util::Bitset64> succs;
};

AdjacencyBitsets BuildAdjacency(const Graph& graph);

// Transitive reachability. ancestors[v] contains every u with a path u->v;
// descendants[v] every w with a path v->w. Computed with word-parallel OR
// over the topological insertion order (O(V*E/64)).
struct ReachabilityBitsets {
  std::vector<util::Bitset64> ancestors;
  std::vector<util::Bitset64> descendants;
};

ReachabilityBitsets BuildReachability(const Graph& graph);

// Liveness roles of one activation buffer.
//
// A buffer is allocated when its first writer executes and deallocated when
// every writer and reader has executed — unless it has no readers at all
// (`is_sink`), in which case it is retained to the end of inference, exactly
// like the paper's model where only fully consumed predecessors are
// deallocated (Algorithm 1, lines 15-19).
struct BufferUse {
  std::int64_t size_bytes = 0;
  std::vector<NodeId> writers;  // nodes whose value lives in this buffer
  std::vector<NodeId> readers;  // distinct nodes reading any such value
  util::Bitset64 touchers;      // writers ∪ readers, as a node bitset
  bool is_sink = false;         // no readers: never deallocated
};

struct BufferUseTable {
  std::vector<BufferUse> buffers;
  // Per node: the distinct buffers it reads (operand buffers, deduplicated).
  std::vector<std::vector<BufferId>> read_buffers;
  // Per node: read buffers plus its own output buffer, deduplicated. These
  // are the buffers whose liveness can change when the node is scheduled.
  std::vector<std::vector<BufferId>> touched_buffers;

  static BufferUseTable Build(const Graph& graph);

  // Lower bound on the peak of every schedule: the max over nodes u of the
  // bytes of u's distinct touched buffers (operands plus its output). Every
  // one of them is simultaneously live at the step that schedules u in ANY
  // topological order — the operands' writers precede u and no operand can
  // be freed before its toucher u has run, while the output is allocated no
  // later than u itself. The admission floor of serve::SchedulerService.
  std::int64_t PeakFloorBytes() const;

  // True if no writer of buffer `b` has executed yet, i.e. scheduling a
  // writer of `b` now would allocate it.
  bool IsFirstWrite(BufferId b, const util::Bitset64& scheduled) const {
    return !WriterScheduled(b, scheduled);
  }

  bool WriterScheduled(BufferId b, const util::Bitset64& scheduled) const {
    for (NodeId w : buffers[static_cast<std::size_t>(b)].writers) {
      if (scheduled.Test(static_cast<std::size_t>(w))) return true;
    }
    return false;
  }
};

}  // namespace serenity::graph

#endif  // SERENITY_GRAPH_ANALYSIS_H_
