// Adaptive soft budgeting — the paper's Algorithm 2 (§3.2, Fig. 8).
//
// The DP scheduler prunes transitions above a soft budget τ. The right τ is
// unknown a priori: too small prunes away every path ('no solution'), too
// large explores too many states ('timeout'). The meta-search starts from
// the hard budget τmax — the peak footprint of Kahn's O(|V|+|E|) schedule,
// always feasible — and binary-searches τ: halve on timeout, move halfway
// back up toward the last known-too-slow value on no-solution, stop at the
// first solution.
//
// Engineering clarifications over the paper's pseudocode (documented in
// DESIGN.md §3.3): the search window [lo, hi] is explicit (lo = largest τ
// that returned no-solution, hi = smallest τ that returned timeout), and if
// the window degenerates without a solution the scheduler falls back to one
// uncapped run at τmax, which is guaranteed to terminate with the optimal
// schedule (it is plain Algorithm 1 with a feasible budget).
#ifndef SERENITY_CORE_SOFT_BUDGET_H_
#define SERENITY_CORE_SOFT_BUDGET_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "core/dp_scheduler.h"
#include "graph/graph.h"
#include "sched/schedule.h"

namespace serenity::core {

struct SoftBudgetOptions {
  // The paper's per-search-step limit T. Applied to each DP level.
  double step_timeout_seconds = 1.0;
  // State cap per DP attempt; exceeding it counts as a timeout signal.
  std::uint64_t max_states_per_attempt = 2'000'000;
  // Hard cap on meta-search iterations (binary search halves the byte range,
  // so convergence is well under this in practice).
  int max_iterations = 64;
  // No effect; remove with the next benchmark PR.
  bool adaptive_parallelism = false;
  // Branch-and-bound incumbent from the caller (an achievable peak, e.g.
  // Pipeline's greedy/beam seed). Every DP attempt additionally tightens it
  // with τmax — Kahn's schedule is achievable by construction — so bound
  // pruning is always on for the meta-search unless disabled here AND the
  // Kahn tightening is unavailable (it never is). kNoBudget means "no
  // caller bound"; Kahn still applies.
  std::int64_t incumbent_bytes = core::kNoBudget;
  // Escape hatch for apples-to-apples ablations: disables bound pruning
  // entirely (including the Kahn tightening).
  bool enable_bound_pruning = true;
  // Soft wall-clock budget for the whole meta-search (seconds; infinity =
  // none). Checked before each attempt and it clamps each attempt's
  // per-level timeout; once expired the search returns kTimeout without
  // running the uncapped fallback, so the caller can degrade instead.
  double deadline_seconds = std::numeric_limits<double>::infinity();
  // Byte budget and cancellation, forwarded to every DP attempt (including
  // the fallback). An attempt that exhausts the budget is treated like a
  // timeout — a tighter τ prunes more states and therefore needs less
  // search memory, so the binary search reacts the same way; a cancelled
  // attempt aborts the whole meta-search with kCancelled.
  util::MemoryBudget* memory_budget = nullptr;
  const util::CancelToken* cancel = nullptr;
};

struct BudgetAttempt {
  std::int64_t budget_bytes = 0;
  DpStatus status = DpStatus::kTimeout;
  std::uint64_t states_expanded = 0;
  std::uint64_t states_pruned_by_bound = 0;  // == pruned.Total()
  PruneBreakdown pruned;
  double seconds = 0.0;
};

struct SoftBudgetResult {
  DpStatus status = DpStatus::kTimeout;  // kSolution unless the graph is empty
  sched::Schedule schedule;
  std::int64_t peak_bytes = -1;
  std::int64_t tau_max = 0;    // hard budget from Kahn's schedule
  std::int64_t tau_final = 0;  // budget that produced the solution
  bool used_fallback = false;  // degenerated to the uncapped τmax run
  std::uint64_t max_level_states = 0;  // widest sealed level, any attempt
  std::vector<BudgetAttempt> attempts;
  double total_seconds = 0.0;

  std::uint64_t TotalStates() const {
    std::uint64_t total = 0;
    for (const BudgetAttempt& a : attempts) total += a.states_expanded;
    return total;
  }

  std::uint64_t TotalPrunedByBound() const {
    std::uint64_t total = 0;
    for (const BudgetAttempt& a : attempts) total += a.states_pruned_by_bound;
    return total;
  }

  PruneBreakdown TotalPruned() const {
    PruneBreakdown total;
    for (const BudgetAttempt& a : attempts) total += a.pruned;
    return total;
  }
};

// `table` (read by τmax's Kahn peak) and `tables` (read by every attempt)
// are `graph`'s; the second form builds them.
SoftBudgetResult ScheduleWithSoftBudget(const graph::Graph& graph,
                                        const graph::BufferUseTable& table,
                                        const ExpansionTables& tables,
                                        const SoftBudgetOptions& options = {});
SoftBudgetResult ScheduleWithSoftBudget(const graph::Graph& graph,
                                        const SoftBudgetOptions& options = {});

}  // namespace serenity::core

#endif  // SERENITY_CORE_SOFT_BUDGET_H_
