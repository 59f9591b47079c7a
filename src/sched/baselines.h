// Baseline schedulers the paper compares against (§2.2, §4):
//
// - TfLiteOrderSchedule: TensorFlow Lite executes ops in the order they
//   appear in the flatbuffer, i.e. model construction order. Our graphs are
//   built in construction order, so this is declaration order.
// - KahnFifoSchedule: Kahn's algorithm (Kahn, 1962) with a FIFO ready queue,
//   the O(|V|+|E|) heuristic the paper cites; also used to obtain the hard
//   budget τmax for adaptive soft budgeting (§3.2).
// - DfsPostorderSchedule: depth-first post-order, the other common
//   frameworks' default.
// - GreedyMemorySchedule: picks the ready node minimizing the resulting
//   footprint — a natural memory-aware heuristic; used as an extra ablation
//   baseline (not from the paper).
// - RandomTopologicalSchedule: uniform-at-random topological order, used to
//   sample the schedule space for the Figure 3(b) CDF.
#ifndef SERENITY_SCHED_BASELINES_H_
#define SERENITY_SCHED_BASELINES_H_

#include "graph/graph.h"
#include "sched/schedule.h"
#include "util/rng.h"

namespace serenity::sched {

Schedule TfLiteOrderSchedule(const graph::Graph& graph);

Schedule KahnFifoSchedule(const graph::Graph& graph);

Schedule DfsPostorderSchedule(const graph::Graph& graph);

// `table` is `graph`'s use table; the second form builds it.
Schedule GreedyMemorySchedule(const graph::Graph& graph,
                              const graph::BufferUseTable& table);
Schedule GreedyMemorySchedule(const graph::Graph& graph);

// Draws one topological order uniformly at random among all ready-node
// choices at each step (uniform over the recursion tree's branches, the
// standard random topological sampler).
Schedule RandomTopologicalSchedule(const graph::Graph& graph, util::Rng& rng);

}  // namespace serenity::sched

#endif  // SERENITY_SCHED_BASELINES_H_
