// Dynamic-programming memory-optimal scheduler — the paper's Algorithm 1,
// running on the flat-arena state store of core/state_store.h.
//
// The search walks the lattice of schedulable prefixes level by level
// (level i = i nodes scheduled). States are memoized on a *signature*: the
// bitset of scheduled nodes, which is in bijection with the paper's
// zero-indegree set z (DESIGN.md §3.2 — the unscheduled set is an up-closed
// set uniquely generated by its minimal elements, which are exactly z).
// Because the running footprint µ is a function of the signature alone, each
// state stores only the best-known peak µpeak and an 8-byte back-pointer;
// keeping the minimum-peak entry per signature is sufficient for optimality
// (paper Appendix C, re-proved mechanically by tests/dp_scheduler_test.cc
// and tests/state_store_test.cc against the brute-force oracle).
//
// State machinery (DESIGN.md "Flat-arena DP state store"): each level's
// signatures live in one contiguous uint64_t arena with SoA side arrays
// (footprint / peak / cached Zobrist hash / frontier mask), deduplicated
// through an open-addressing table — no per-state heap allocation.
// Expansion is frontier-driven: each state stores its zero-indegree set as
// a mask, which a child derives from its parent's with one successor scan,
// and the deallocate-after-last-use test is a word-wise
// `touchers ⊆ scheduled ∪ {u}` subset check. Each candidate child is
// looked up before it is derived (DESIGN.md "Lookup before derivation"):
// the step cuts read only its step peak, one probe of the next level finds
// a held child, which is only relaxed, and only a new child pays for its
// mask, free scan and floor before it fills the probed slot. A finished
// level immediately drops everything except its back-pointer records, so
// resident memory per completed level is 8 bytes/state. Levels expand
// sequentially, one parent state after another, so the full result is
// deterministic.
//
// Eager steps (DESIGN.md "Eager non-increasing steps"): if a ready node's
// step stays within the state's peak and does not grow its footprint, some
// optimal completion schedules it first, so the lowest such node is the
// state's only child. The reduction is exact and always on, at every
// width; the peak is unchanged, though the schedule may be a different
// optimum than the unreduced walk's.
//
// Soft budgets (paper §3.2): passing `budget_bytes` prunes any transition
// whose transient footprint exceeds the budget. With τ ≥ µ* the optimal
// schedule survives pruning; with τ < µ* the final level ends empty and the
// scheduler reports kNoSolution. A per-level wall-clock cap and a global
// state cap report kTimeout, the signal the adaptive-soft-budgeting
// meta-search reacts to.
//
// Beam search (ScheduleDpBeam, wrapped by sched::ScheduleBeam) is the same
// walk with a post-seal cut of each level to its `width` best states.
// Both read the graph only through a caller-built, read-only
// ExpansionTables, which Pipeline shares across a segment's runs (DESIGN.md
// "One analysis per plan").
#ifndef SERENITY_CORE_DP_SCHEDULER_H_
#define SERENITY_CORE_DP_SCHEDULER_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/graph.h"
#include "sched/schedule.h"
#include "util/cancel_token.h"
#include "util/memory_budget.h"

namespace serenity::core {

inline constexpr std::int64_t kNoBudget =
    std::numeric_limits<std::int64_t>::max();

class ExpansionTables;  // core/state_store.h

struct DpOptions {
  // Soft budget τ in bytes; transitions whose transient footprint exceeds it
  // are pruned. kNoBudget disables pruning.
  std::int64_t budget_bytes = kNoBudget;
  // Branch-and-bound incumbent: the peak of a schedule that is *known
  // achievable* (greedy baseline, narrow beam, Kahn), i.e. an upper bound
  // on the optimum µ*. Two admissible cuts run against it: a transition
  // whose step peak STRICTLY exceeds the incumbent is dropped, and so is a
  // child whose footprint plus one-step frontier floor (the least its next
  // step must allocate) does. Strict inequality keeps the returned peak and
  // the reconstructed schedule bit-identical to the unpruned search
  // (DESIGN.md "Branch-and-bound over levels"); an incumbent below µ*
  // violates the contract and may turn a feasible search into
  // kNoSolution. kNoBudget disables bound pruning.
  std::int64_t incumbent_bytes = kNoBudget;
  // The paper's per-search-step time limit T (seconds). A level that takes
  // longer aborts the run with kTimeout. Infinity disables the check. The
  // check runs every 64 states *and* every ~4096 transitions, so a single
  // pathological state expansion cannot overshoot unboundedly.
  double step_timeout_seconds = std::numeric_limits<double>::infinity();
  // Cap on live memoized states across all levels; exceeding it aborts with
  // kTimeout (the two limits express the same "scheduling is intractable at
  // this budget" signal; the state cap makes runs deterministic).
  std::uint64_t max_states = 4'000'000;
  // Byte budget for the search's *own* memory (state arenas, SoA arrays,
  // hash tables, reconstruction records, expansion tables). The run holds
  // a high-water reservation against it — charged before each level grows,
  // trued up at the same 64-state/~4096-transition cadence as step
  // timeouts, refunded wholesale when the run ends. A denied charge aborts
  // with kResourceExhausted (the degradation ladder's memory signal). A
  // run overshoots the reservation by at most one vector doubling plus one
  // check interval of inserts. nullptr = ungoverned.
  util::MemoryBudget* memory_budget = nullptr;
  // Cooperative cancellation, polled at the same cadence as the step
  // timeout. A cancelled run aborts with kCancelled; it mutates nothing
  // shared, so re-planning after a cancel is bit-identical to a run that
  // was never cancelled. nullptr = not cancellable.
  const util::CancelToken* cancel = nullptr;
};

// Per-bound prune attribution. Each pruned transition is counted exactly
// once, under the *first* test that killed it (step peak, then child
// floor). Deterministic, like every other state count of the run. The search runs only the step-peak cut and
// the one-step frontier floor: `residual`, `lookahead` and `dominance`
// always read 0 and stay only so readers of all five fields still compile.
struct PruneBreakdown {
  // Transition step peaks that exceeded the incumbent.
  std::uint64_t incumbent = 0;
  // Always 0: no residual bound runs.
  std::uint64_t residual = 0;
  // Children whose footprint plus one-step frontier-alloc floor exceeded
  // the incumbent.
  std::uint64_t frontier_floor = 0;
  // Always 0: no lookahead probe runs.
  std::uint64_t lookahead = 0;
  // Always 0: no dominance table is kept.
  std::uint64_t dominance = 0;

  std::uint64_t Total() const {
    return incumbent + residual + frontier_floor + lookahead + dominance;
  }
  PruneBreakdown& operator+=(const PruneBreakdown& o) {
    incumbent += o.incumbent;
    residual += o.residual;
    frontier_floor += o.frontier_floor;
    lookahead += o.lookahead;
    dominance += o.dominance;
    return *this;
  }
};

enum class DpStatus {
  kSolution,           // optimal schedule found (within the budget, if any)
  kNoSolution,         // every path exceeded the budget: τ < µ*
  kTimeout,            // step timeout or state cap hit; result unusable
  kResourceExhausted,  // the memory budget denied a charge mid-search
  kCancelled,          // the cancel token fired mid-search
};

const char* ToString(DpStatus status);

struct DpResult {
  DpStatus status = DpStatus::kTimeout;
  sched::Schedule schedule;         // valid iff status == kSolution
  std::int64_t peak_bytes = -1;     // µpeak of `schedule`
  std::uint64_t states_expanded = 0;   // memoized signatures created
  // Candidate node expansions: every (parent state, frontier node) pair
  // walked, cut or not. A parent with an eager node walks only that node.
  std::uint64_t transitions = 0;
  // Search-space cut by the incumbent bound: transitions whose step peak
  // or child floor exceeded the incumbent. Deterministic. Always equals
  // pruned.Total().
  std::uint64_t states_pruned_by_bound = 0;
  // The same cut, attributed per bound (see PruneBreakdown).
  PruneBreakdown pruned;
  // State count of the widest sealed level of the run (before any beam
  // cut).
  std::uint64_t max_level_states = 0;
  double seconds = 0.0;
};

// The graph form builds the tables first.
DpResult ScheduleDp(const ExpansionTables& tables,
                    const DpOptions& options = {});
DpResult ScheduleDp(const graph::Graph& graph, const DpOptions& options = {});

// The same walk keeping only the `width` best states of each sealed level
// by the intrinsic order (peak, footprint, hash, signature words), for
// width > 0: a beam search, exact only when no level outgrows `width`.
// The memory budget is also charged for the cut copy. The one-step child
// floor stays off: a floor-cut state would free a slot for another state,
// so the survivors would depend on the incumbent. The step-peak cut against
// `incumbent_bytes` runs, and since a state it drops ranks below every
// state within the incumbent, it changes no survivor within it; a level it
// empties ends the run with kNoSolution. ScheduleDp is the unlimited width.
DpResult ScheduleDpBeam(const ExpansionTables& tables,
                        const DpOptions& options, std::size_t width);

}  // namespace serenity::core

#endif  // SERENITY_CORE_DP_SCHEDULER_H_
