// Linear memory arena planner.
//
// TensorFlow Lite's ArenaPlanner ("greedy by size") assigns every tensor an
// offset in one flat arena (the allocator the paper uses for both systems —
// §4.1 footnote). Given a schedule, the planner derives each buffer's
// lifetime from the liveness model, places buffers in decreasing size order
// (ties by first use), each at the lowest aligned offset free across its
// lifetime, and reports the arena high-water mark — the "with memory
// allocator" footprint numbers of Figures 10/12(a)/15. Fragmentation makes
// this an upper bound on the pure sum-of-live-activations footprint of
// Figure 12(b).
//
// Implementation: each buffer walks one offset-sorted vector of the
// placements made so far, skipping those whose lifetimes miss its own, and
// stops at the first gap that fits; the per-step highwater trace is filled
// directly from each placement's lifetime. At the sizes planned here (at
// most 64 placements per zoo cell) these plain scans beat any index — see
// DESIGN.md "Arena planner and hierarchy simulator: plain scans". The
// placements are bit-identical to the seed's scan, which survives as
// `testing::ReferencePlanArena` for the property suites.
#ifndef SERENITY_ALLOC_ARENA_PLANNER_H_
#define SERENITY_ALLOC_ARENA_PLANNER_H_

#include <cstdint>
#include <vector>

#include "graph/analysis.h"
#include "graph/graph.h"
#include "sched/schedule.h"
#include "util/memory_budget.h"
#include "util/status.h"

namespace serenity::alloc {

struct BufferPlacement {
  graph::BufferId buffer = graph::kInvalidBuffer;
  std::int64_t offset = 0;
  std::int64_t size = 0;
  int first_step = 0;  // step allocating the buffer (its first write)
  int last_step = 0;   // step of its last use (end of schedule for sinks)
};

struct ArenaPlan {
  std::vector<BufferPlacement> placements;  // buffers actually used
  std::int64_t arena_bytes = 0;             // max(offset + size)
  // Arena bytes in use at each schedule step: max over live placements of
  // offset+size. This is the allocator-view footprint trace (Fig. 12(a)).
  std::vector<std::int64_t> highwater_at_step;
};

// Plans the arena for `schedule`. `alignment` rounds every offset up
// (TFLite uses 64-byte alignment by default).
ArenaPlan PlanArena(const graph::Graph& graph,
                    const graph::BufferUseTable& table,
                    const sched::Schedule& schedule,
                    std::int64_t alignment = 64);

// Convenience overload building the use table internally.
ArenaPlan PlanArena(const graph::Graph& graph,
                    const sched::Schedule& schedule,
                    std::int64_t alignment = 64);

// The allocator-view footprint trace of `placements` over `num_steps`
// steps: at each step, the max offset+size over the placements live there
// (ArenaPlan::highwater_at_step). Every lifetime must satisfy
// 0 <= first_step <= last_step < num_steps.
std::vector<std::int64_t> HighwaterAtStep(
    const std::vector<BufferPlacement>& placements, std::size_t num_steps);

// Upper bound on PlanArena's transient + retained bytes for this input:
// the lifetime, order and scan working set plus the returned plan's
// vectors, all linear in buffers and steps. What the governed entry
// charges.
std::int64_t EstimatePlannerBytes(const graph::BufferUseTable& table,
                                  const sched::Schedule& schedule);

// Budget-governed planning (serve path): charges EstimatePlannerBytes
// against `budget` for the duration of the run and refunds it on return —
// the returned plan's own bytes are the caller's to account (the session
// pool charges the arena itself when a session materializes it). A denied
// charge surfaces as kResourceExhausted with nothing allocated; a null
// budget is ungoverned and never fails.
util::StatusOr<ArenaPlan> PlanArenaGoverned(
    const graph::Graph& graph, const sched::Schedule& schedule,
    util::MemoryBudget* budget, std::int64_t alignment = 64);

// True if no two placements with overlapping lifetimes overlap in address
// range — the allocator's safety invariant (exercised by tests) — and, when
// `alignment` is given, every offset is a multiple of it (the contract a
// SIMD kernel backend relies on for its vector loads; see
// runtime::PlacementAlignment). A pairwise check, O(n^2) in placements.
bool ValidatePlacements(const ArenaPlan& plan,
                        std::int64_t alignment = sizeof(float));

// Cross-validates a plan against the graph and schedule an executor would
// bind it to: exactly one placement per buffer the graph uses, each exactly
// the buffer's byte size at an `alignment`-aligned offset inside the arena
// (float-aligned at minimum; executors pass the resolved kernel backend's
// PlacementAlignment), every producer AND consumer step inside its buffer's
// planned lifetime, and pairwise non-overlap (ValidatePlacements).
// `schedule` must already be a topological order of `graph`. Returns
// human-readable problems; empty means the plan is safe to execute. Shared
// by serialize::PlanFromText (so a corrupt cache file dies at load) and
// runtime::ArenaExecutor (so a plan handed in directly dies at
// construction).
std::vector<std::string> ValidatePlanForGraph(
    const ArenaPlan& plan, const graph::Graph& graph,
    const sched::Schedule& schedule, std::int64_t alignment = sizeof(float));

}  // namespace serenity::alloc

#endif  // SERENITY_ALLOC_ARENA_PLANNER_H_
