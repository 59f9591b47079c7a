#include "core/soft_budget.h"

#include <algorithm>

#include "core/state_store.h"
#include "sched/baselines.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace serenity::core {

SoftBudgetResult ScheduleWithSoftBudget(const graph::Graph& graph,
                                        const SoftBudgetOptions& options) {
  const graph::BufferUseTable table = graph::BufferUseTable::Build(graph);
  return ScheduleWithSoftBudget(
      graph, table,
      ExpansionTables(graph, table, graph::BuildAdjacency(graph)), options);
}

SoftBudgetResult ScheduleWithSoftBudget(const graph::Graph& graph,
                                        const graph::BufferUseTable& table,
                                        const ExpansionTables& tables,
                                        const SoftBudgetOptions& options) {
  util::Stopwatch clock;
  SoftBudgetResult result;

  // Hard budget τmax: the peak of Kahn's schedule (Algorithm 2 line 3).
  // Any τ ≥ τmax admits at least that schedule, so τmax is always feasible.
  const sched::Schedule kahn = sched::KahnFifoSchedule(graph);
  result.tau_max = sched::EvaluateFootprint(graph, table, kahn).peak_bytes;

  // Binary-search window: µ* lies in (lo, hi]. lo rises on 'no solution'
  // (τ < µ*), hi falls on... nothing — a timeout says nothing about µ*, only
  // that this τ explores too slowly, so it bounds the *search* from above.
  std::int64_t lo = 0;
  std::int64_t hi = result.tau_max;
  std::int64_t tau = result.tau_max;

  // Branch-and-bound incumbent: τmax is achievable (it is Kahn's own peak),
  // so it always upper-bounds µ*; a caller-provided achievable bound (e.g.
  // Pipeline's greedy/beam seed) can only tighten it. Bound pruning keeps
  // the returned peak and schedule bit-identical per attempt, so the
  // binary-search trajectory is unchanged wherever attempts complete.
  DpOptions dp_options;
  dp_options.step_timeout_seconds = options.step_timeout_seconds;
  dp_options.max_states = options.max_states_per_attempt;
  dp_options.memory_budget = options.memory_budget;
  dp_options.cancel = options.cancel;
  if (options.enable_bound_pruning) {
    dp_options.incumbent_bytes =
        std::min(options.incumbent_bytes, result.tau_max);
  }

  // Wall-clock guard: seconds left before the caller's deadline. Checked
  // between attempts and clamped onto each attempt's per-level timeout, so
  // overshoot is bounded by one level granule.
  const auto remaining = [&] {
    return options.deadline_seconds - clock.ElapsedSeconds();
  };
  const auto finish = [&]() -> SoftBudgetResult& {
    result.total_seconds = clock.ElapsedSeconds();
    return result;
  };

  for (int iteration = 0; iteration < options.max_iterations; ++iteration) {
    if (remaining() <= 0) {
      return finish();  // status stays kTimeout; caller may degrade
    }
    dp_options.budget_bytes = tau;
    dp_options.step_timeout_seconds =
        std::min(options.step_timeout_seconds, remaining());
    const DpResult attempt = ScheduleDp(tables, dp_options);
    result.max_level_states =
        std::max(result.max_level_states, attempt.max_level_states);
    result.attempts.push_back(BudgetAttempt{tau, attempt.status,
                                            attempt.states_expanded,
                                            attempt.states_pruned_by_bound,
                                            attempt.pruned,
                                            attempt.seconds});
    if (attempt.status == DpStatus::kSolution) {
      result.status = DpStatus::kSolution;
      result.schedule = attempt.schedule;
      result.peak_bytes = attempt.peak_bytes;
      result.tau_final = tau;
      return finish();
    }
    if (attempt.status == DpStatus::kCancelled) {
      // The caller abandoned the request: stop the meta-search on the spot.
      result.status = DpStatus::kCancelled;
      return finish();
    }
    if (attempt.status == DpStatus::kTimeout ||
        attempt.status == DpStatus::kResourceExhausted) {
      // Too many surviving paths — in time or in bytes: either way a
      // tighter budget prunes more, so treat both as the "too slow" signal
      // and tighten (Algorithm 2 line 11).
      hi = tau;
      tau = lo + (tau - lo) / 2;
    } else {  // kNoSolution: pruned the optimum away (line 14)
      lo = tau;
      tau = tau + (hi - tau) / 2;
    }
    if (tau <= lo || tau >= hi) break;  // window degenerated
  }

  // Fallback: one untimed run at τmax, the only budget known feasible
  // (timeouts say nothing about feasibility, and every 'no solution' τ is
  // infeasible). The state cap is kept as a memory guard — if even this run
  // exceeds it, the graph is genuinely intractable at this granularity and
  // the caller sees kTimeout (the paper's "N/A: infeasible within practical
  // time").
  if (remaining() <= 0) {
    return finish();  // deadline expired: skip the uncapped fallback run
  }
  result.used_fallback = true;
  // The fallback must never cost more than the attempts that failed: it
  // keeps their incumbent, state cap (a memory guard), byte budget and
  // cancel token.
  DpOptions fallback = dp_options;
  fallback.budget_bytes = result.tau_max;
  // The fallback is normally untimed, but a finite caller deadline bounds
  // it too — a fallback that overruns is reported as kTimeout and the
  // caller degrades rather than blocking the serving thread.
  fallback.step_timeout_seconds = remaining();
  const DpResult final_run = ScheduleDp(tables, fallback);
  result.max_level_states =
      std::max(result.max_level_states, final_run.max_level_states);
  result.attempts.push_back(BudgetAttempt{result.tau_max, final_run.status,
                                          final_run.states_expanded,
                                          final_run.states_pruned_by_bound,
                                          final_run.pruned,
                                          final_run.seconds});
  result.status = final_run.status;
  if (final_run.status == DpStatus::kSolution) {
    result.schedule = final_run.schedule;
    result.peak_bytes = final_run.peak_bytes;
    result.tau_final = result.tau_max;
  }
  return finish();
}

}  // namespace serenity::core
