// The end-to-end SERENITY pipeline (paper Fig. 4):
//
//   G --IdentityGraphRewriter--> G' --divide&conquer--> segments
//     --DP + adaptive soft budgeting--> per-segment schedules --combine--> s*
//
// Pipeline::Run is the one-call public entry point used by the examples and
// benches; each stage can be toggled for the ablations in Table 2/Figure 13.
// Its outcome is PipelineResult::status: Run is the only code that turns a
// search's DpStatus into a failure code, and callers (the serving layer
// included) pass that Status on instead of re-deriving it. A run that
// degrades under deadline or memory pressure is OK, tagged with the
// PlanQuality of its fallback and the DegradeReason that forced it.
#ifndef SERENITY_CORE_PIPELINE_H_
#define SERENITY_CORE_PIPELINE_H_

#include <limits>
#include <string>
#include <vector>

#include "core/dp_scheduler.h"
#include "core/partitioner.h"
#include "core/soft_budget.h"
#include "graph/graph.h"
#include "rewrite/rewriter.h"
#include "sched/schedule.h"
#include "util/status.h"

namespace serenity::core {

// Quality tier of a produced schedule — the degradation ladder. Exact is
// the full DP search (memory-optimal); beam and greedy are the admissible
// fallbacks a deadline-pressured run degrades to (beam first, greedy as the
// always-feasible floor; Liberis & Lane 2019 treat the cheap topological
// order the same way). Ordered best-first so callers can compare tiers.
enum class PlanQuality {
  kExact = 0,
  kBeam,
  kGreedy,
};

const char* ToString(PlanQuality quality);

struct PipelineOptions {
  // Stage toggles. All on = full SERENITY; rewrite off = the paper's
  // "Dynamic Programming + Memory Allocator" configuration.
  bool enable_rewriting = true;
  bool enable_partitioning = true;
  bool enable_soft_budgeting = true;

  // Branch-and-bound seeding: before a segment's DP runs, the pipeline
  // obtains an achievable peak from the greedy memory baseline and a narrow
  // beam (whichever is lower) and hands it to the search as the incumbent
  // (DpOptions::incumbent_bytes). Pruning on the incumbent is strict, so
  // the returned peak and schedule are bit-identical to the unseeded search
  // — only states_expanded drops. The incumbent tightens whenever a better
  // complete schedule lands: greedy first, then the beam, then per-attempt
  // Kahn inside soft budgeting.
  bool enable_bound_pruning = true;
  // Seed-beam width; 0 seeds from greedy alone. On the paper's nine cells
  // the seed decides DARTS's search (a greedy-only seed expands 5x the
  // states) and any width from 4 up closes that gap; wider beams save a
  // few states elsewhere but cost more beam time than the DP saves
  // (DESIGN.md "Branch-and-bound over levels" has the width sweep).
  int incumbent_beam_width = 8;

  // No effect; remove with the next benchmark PR.
  bool adaptive_parallelism = true;

  // Wall-clock budget for the whole Run (seconds; infinity = none). The
  // deadline is *soft*: it is checked between segments and between
  // soft-budget attempts, and clamps each DP attempt's per-level timeout,
  // so overshoot is bounded by one level-timeout granule rather than a
  // whole search.
  double deadline_seconds = std::numeric_limits<double>::infinity();
  // What to do when the deadline expires (or a segment search times out)
  // before the exact schedule lands. Off: Run fails with
  // kDeadlineExceeded. On: Run *degrades* instead of failing — it
  // schedules the whole rewritten graph with a width-64 beam and the
  // greedy baseline (both always feasible), returns the better one, and
  // tags the result with its PlanQuality tier. Serving callers turn this
  // on; batch tooling that prefers hard failure leaves it off.
  bool degrade_on_deadline = false;

  // Byte budget for the run's search memory, forwarded into every DP
  // attempt, the soft-budget meta-search and the beam passes (seed and
  // degraded). Exhaustion mid-search surfaces as kResourceExhausted, which
  // rides the same degradation ladder as a blown deadline when
  // degrade_on_deadline is set: the greedy floor is O(|V|+|E|) and always
  // fits. nullptr = ungoverned.
  util::MemoryBudget* memory_budget = nullptr;
  // Cooperative cancellation, polled between segments and inside every
  // search at the step-timeout cadence. A cancelled run fails cleanly with
  // kCancelled — it never degrades (nobody is waiting for the plan).
  const util::CancelToken* cancel = nullptr;

  rewrite::RewriteOptions rewrite;
  PartitionOptions partition;
  // With soft budgeting disabled each segment runs plain Algorithm 1 with
  // default DpOptions (no τ, the default state cap).
  SoftBudgetOptions soft_budget;
};

// Why a degraded run degraded (kNone when the exact search finished).
enum class DegradeReason {
  kNone = 0,
  kDeadline,  // the wall-clock deadline or a search's step limit expired
  kMemory,    // the memory budget denied a charge mid-search
};

struct PipelineResult {
  // OK iff `schedule` is usable. Pipeline::Run is the one place a search
  // outcome becomes a failure code: kCancelled when the cancel token fired
  // (never degraded), kDeadlineExceeded when the deadline or a search's
  // step limit or state cap cut the exact search, kResourceExhausted when
  // the memory budget did — the last two only when degrade_on_deadline is
  // off, since otherwise the run degrades and stays OK.
  util::Status status;

  graph::Graph scheduled_graph;  // the (possibly rewritten) graph s* indexes
  sched::Schedule schedule;      // s*, over scheduled_graph's node ids
  std::int64_t peak_bytes = -1;  // µpeak of s* on scheduled_graph

  // Which rung of the degradation ladder produced `schedule`; anything
  // below kExact is a degraded (valid, feasible, possibly above µ*) plan.
  PlanQuality quality = PlanQuality::kExact;
  // Why the run degraded; kNone for exact plans. Like the timings below it
  // describes the planning run, not the plan, and is not persisted.
  DegradeReason degrade_reason = DegradeReason::kNone;
  // Lowest peak among every complete schedule this run computed (exact,
  // beam, greedy, incumbent seeds). For an exact run this equals
  // peak_bytes; for a degraded run it is the best-known achievable peak the
  // served schedule is measured against (peak_bytes - best_known_peak_bytes
  // = how far the degraded choice is above the best schedule in hand).
  std::int64_t best_known_peak_bytes = -1;

  rewrite::RewriteReport rewrite_report;  // zeros when rewriting disabled
  std::vector<int> segment_sizes;         // Table 2's "{21, 19, 22}"
  std::uint64_t states_expanded = 0;      // summed across segments/attempts
  // Search-space cut by the branch-and-bound incumbent, summed like
  // states_expanded (0 when bound pruning is disabled).
  std::uint64_t states_pruned_by_bound = 0;
  // The same cut attributed per bound (step peak over the incumbent /
  // one-step frontier floor; the other PruneBreakdown fields read 0),
  // summed across segments and attempts; pruned.Total() ==
  // states_pruned_by_bound.
  PruneBreakdown pruned;
  // Widest sealed DP level across segments/attempts.
  std::uint64_t max_level_states = 0;
  double rewrite_seconds = 0.0;
  double partition_seconds = 0.0;
  double schedule_seconds = 0.0;
  double total_seconds = 0.0;
};

class Pipeline {
 public:
  explicit Pipeline(PipelineOptions options = {})
      : options_(std::move(options)) {}

  PipelineResult Run(const graph::Graph& graph) const;

 private:
  PipelineOptions options_;
};

}  // namespace serenity::core

#endif  // SERENITY_CORE_PIPELINE_H_
