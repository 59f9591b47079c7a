// Beam-search scheduler: the anytime fallback for graphs whose signature
// space defeats even budget-pruned dynamic programming.
//
// The DP of Algorithm 1 is exact but worst-case exponential; adaptive soft
// budgeting keeps it tractable for the paper's cells, yet a user importing
// an arbitrary irregular graph needs a graceful degradation path. The beam
// is the DP's own level walk (core::ScheduleDpBeam) with each sealed level
// cut to its `width` best states (ranked by peak, then footprint, hash and
// signature words), trading optimality for a hard O(width · |V|^2) bound.
// This file only maps the options and the result.
//
// Properties (enforced by tests):
//  - always returns a valid topological order;
//  - never worse than the greedy baseline at width >= 1 in expectation —
//    and exactly optimal when `width` exceeds the true level width;
//  - quality is monotone in `width` in the aggregate (not per instance).
#ifndef SERENITY_SCHED_BEAM_H_
#define SERENITY_SCHED_BEAM_H_

#include <cstdint>
#include <limits>

#include "graph/graph.h"
#include "sched/schedule.h"
#include "util/cancel_token.h"
#include "util/memory_budget.h"
#include "util/status.h"

namespace serenity::core { class ExpansionTables; }  // core/state_store.h

namespace serenity::sched {

struct BeamOptions {
  int width = 64;  // states retained per level
  // Byte budget for the beam's own level storage and cooperative
  // cancellation, both polled like the DP's (per level, every 64 parent
  // states and every ~4096 transitions; an attached token also consults
  // the kCancelPoll fault point). A level holds every deduplicated child of
  // the previous `width` states until it is cut to the `width` best, so the
  // charge is that level, its cut copy and the reconstruction records. On
  // denial/cancel the result carries kResourceExhausted / kCancelled and
  // no schedule. nullptr = ungoverned / not cancellable.
  util::MemoryBudget* memory_budget = nullptr;
  const util::CancelToken* cancel = nullptr;
  // Branch-and-bound cut against a peak already known achievable (e.g. the
  // greedy baseline, when the beam runs as an incumbent refiner in
  // core/pipeline): it is the DP's `incumbent_bytes`, so transitions whose
  // step peak STRICTLY exceeds it are dropped before they compete for beam
  // slots. Those rank below every state within the bound, so the survivors
  // within it, and any answer within it, are the unbounded beam's. The
  // DP's one-step child floor does not run (it would free slots and change
  // the survivors). If the cut empties a level the beam reports NotFound —
  // every width-limited path exceeded the bound, so the caller's existing
  // incumbent already wins. The default (max) disables the cut.
  std::int64_t prune_above_bytes = std::numeric_limits<std::int64_t>::max();
};

struct BeamResult {
  // OK unless the memory budget denied a charge (kResourceExhausted), the
  // cancel token fired (kCancelled) or prune_above_bytes emptied a level
  // (kNotFound); `schedule` is valid iff OK.
  util::Status status;
  Schedule schedule;
  std::int64_t peak_bytes = 0;
  // Transitions walked (core::DpResult::transitions): every (parent state,
  // frontier node) pair of the kept states, step-cut or not.
  std::uint64_t states_expanded = 0;
};

// `tables` are `graph`'s, read only; the second form builds them.
BeamResult ScheduleBeam(const graph::Graph& graph,
                        const core::ExpansionTables& tables,
                        const BeamOptions& options = {});
BeamResult ScheduleBeam(const graph::Graph& graph,
                        const BeamOptions& options = {});

}  // namespace serenity::sched

#endif  // SERENITY_SCHED_BEAM_H_
