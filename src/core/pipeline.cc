#include "core/pipeline.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "core/state_store.h"
#include "sched/baselines.h"
#include "sched/beam.h"
#include "testing/fault_injection.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace serenity::core {

const char* ToString(PlanQuality quality) {
  switch (quality) {
    case PlanQuality::kExact: return "exact";
    case PlanQuality::kBeam: return "beam";
    case PlanQuality::kGreedy: return "greedy";
  }
  return "unknown";
}

namespace {

// Beam width of the degradation ladder's middle rung.
constexpr int kDegradedBeamWidth = 64;

// Achievable upper bound on a segment's optimal peak: the better of the
// greedy memory baseline and a narrow beam. Both produce complete, valid
// schedules, so their peaks are incumbents the branch-and-bound search can
// prune against; the beam usually tightens the greedy seed substantially at
// a cost that is small next to the DP it accelerates.
std::int64_t SeedIncumbent(const graph::Graph& segment,
                           const graph::BufferUseTable& table,
                           const ExpansionTables& tables, int beam_width,
                           util::MemoryBudget* budget,
                           const util::CancelToken* cancel) {
  // Greedy is O(|V|+|E|) with no level storage — it stays ungoverned; the
  // beam pass charges the budget and polls the token, and a refused or
  // cancelled beam simply leaves the greedy seed in place (the DP that
  // follows will surface the budget/cancel signal itself).
  std::int64_t incumbent =
      sched::EvaluateFootprint(segment, table,
                               sched::GreedyMemorySchedule(segment, table))
          .peak_bytes;
  if (beam_width > 0) {
    sched::BeamOptions beam_options;
    beam_options.width = beam_width;
    beam_options.memory_budget = budget;
    beam_options.cancel = cancel;
    // The greedy peak is already achievable, so the beam only needs to
    // find something strictly better: let it prune against the greedy
    // bound with the same admissible floors the DP uses. A beam that comes
    // back NotFound (every path cut) just leaves the greedy seed standing.
    beam_options.prune_above_bytes = incumbent;
    const sched::BeamResult beam =
        sched::ScheduleBeam(segment, tables, beam_options);
    if (beam.status.ok()) {
      incumbent = std::min(incumbent, beam.peak_bytes);
    }
  }
  return incumbent;
}

// The one mapping from a segment search's outcome to a failure code. A
// timeout or exhausted byte budget is degradable (beam/greedy still satisfy
// the caller); kCancelled fails cleanly (the caller left). kNoSolution
// cannot happen: no τ is set outside soft budgeting, and the incumbent is
// an achievable peak, so it never prunes the optimum away.
util::Status SegmentStatus(const std::string& segment_name,
                           DpStatus status) {
  const std::string message = "segment '" + segment_name +
                              "' did not converge: " + ToString(status);
  switch (status) {
    case DpStatus::kSolution: return util::OkStatus();
    case DpStatus::kCancelled: return util::CancelledError(message);
    case DpStatus::kResourceExhausted:
      return util::ResourceExhaustedError(message);
    case DpStatus::kTimeout: return util::DeadlineExceededError(message);
    case DpStatus::kNoSolution: break;
  }
  return util::InternalError(message);
}

}  // namespace

PipelineResult Pipeline::Run(const graph::Graph& graph) const {
  util::Stopwatch total_clock;
  PipelineResult result;

  // Soft wall-clock budget for the whole run. Checked between segments and
  // attempts; forwarded into the soft-budget meta-search so a single DP
  // attempt cannot silently outlive it. The fault-injection point lets the
  // chaos suite force the deadline-expired path deterministically.
  const double deadline = options_.deadline_seconds;
  const bool injected_timeout =
      testing::FaultTriggered(testing::FaultPoint::kSchedulerTimeout);
  const auto remaining = [&] {
    return deadline - total_clock.ElapsedSeconds();
  };

  // Stage 1: identity graph rewriting.
  util::Stopwatch stage_clock;
  if (options_.enable_rewriting) {
    rewrite::RewriteResult rewritten =
        rewrite::RewriteGraph(graph, options_.rewrite);
    result.scheduled_graph = std::move(rewritten.graph);
    result.rewrite_report = rewritten.report;
  } else {
    result.scheduled_graph = graph;
    result.rewrite_report.nodes_before = graph.num_nodes();
    result.rewrite_report.nodes_after = graph.num_nodes();
  }
  result.rewrite_seconds = stage_clock.ElapsedSeconds();

  // Stage 2: divide and conquer.
  stage_clock.Restart();
  Partition partition;
  if (options_.enable_partitioning) {
    partition = PartitionAtCuts(result.scheduled_graph, options_.partition);
  } else {
    // One segment: the whole graph.
    Segment whole;
    whole.subgraph = result.scheduled_graph;
    whole.orig_ids.resize(
        static_cast<std::size_t>(result.scheduled_graph.num_nodes()));
    for (graph::NodeId id = 0; id < result.scheduled_graph.num_nodes();
         ++id) {
      whole.orig_ids[static_cast<std::size_t>(id)] = id;
    }
    partition.segments.push_back(std::move(whole));
  }
  result.segment_sizes = partition.SegmentSizes();
  result.partition_seconds = stage_clock.ElapsedSeconds();

  // Stage 3: schedule each segment (conquer), then combine. A blown
  // deadline (real or injected) or memory budget either degrades —
  // beam/greedy over the whole rewritten graph, always feasible — or
  // fails, per options; a cancel always fails.
  stage_clock.Restart();
  // Only an injected timeout expires a run with no deadline.
  const auto deadline_expired = [&] {
    return util::DeadlineExceededError(
        std::isfinite(deadline)
            ? "deadline of " + std::to_string(deadline) +
                  "s expired before scheduling completed"
            : std::string("scheduler timeout expired before scheduling "
                          "completed (no deadline was set)"));
  };
  util::Status status;  // the first failure; OK while segments converge
  if (injected_timeout || remaining() <= 0) status = deadline_expired();
  std::int64_t best_seed_bytes = kNoBudget;  // cheapest seed, any segment
  std::vector<sched::Schedule> segment_schedules;
  segment_schedules.reserve(partition.segments.size());
  for (const Segment& segment : partition.segments) {
    if (!status.ok()) break;
    if (options_.cancel != nullptr && options_.cancel->cancelled()) {
      status = util::CancelledError("planning cancelled by the caller");
      break;
    }
    // One analysis per segment (DESIGN.md "One analysis per plan").
    const graph::BufferUseTable table =
        graph::BufferUseTable::Build(segment.subgraph);
    const ExpansionTables tables(segment.subgraph, table,
                                 graph::BuildAdjacency(segment.subgraph));
    // Branch-and-bound seeding (strict pruning: same peak, same schedule,
    // fewer states — DESIGN.md "Branch-and-bound over levels").
    std::int64_t incumbent = kNoBudget;
    if (options_.enable_bound_pruning) {
      incumbent = SeedIncumbent(segment.subgraph, table, tables,
                                options_.incumbent_beam_width,
                                options_.memory_budget, options_.cancel);
      best_seed_bytes = std::min(best_seed_bytes, incumbent);
    }
    DpStatus dp_status;
    sched::Schedule schedule;
    if (options_.enable_soft_budgeting) {
      SoftBudgetOptions sb_options = options_.soft_budget;
      sb_options.incumbent_bytes =
          std::min(sb_options.incumbent_bytes, incumbent);
      sb_options.enable_bound_pruning = options_.enable_bound_pruning &&
                                        sb_options.enable_bound_pruning;
      sb_options.deadline_seconds =
          std::min(sb_options.deadline_seconds, remaining());
      sb_options.memory_budget = options_.memory_budget;
      sb_options.cancel = options_.cancel;
      SoftBudgetResult sb =
          ScheduleWithSoftBudget(segment.subgraph, table, tables, sb_options);
      result.states_expanded += sb.TotalStates();
      result.states_pruned_by_bound += sb.TotalPrunedByBound();
      result.pruned += sb.TotalPruned();
      result.max_level_states =
          std::max(result.max_level_states, sb.max_level_states);
      dp_status = sb.status;
      schedule = std::move(sb.schedule);
    } else {
      DpOptions dp_options;
      dp_options.incumbent_bytes = incumbent;
      dp_options.step_timeout_seconds = remaining();
      dp_options.memory_budget = options_.memory_budget;
      dp_options.cancel = options_.cancel;
      DpResult dp = ScheduleDp(tables, dp_options);
      result.states_expanded += dp.states_expanded;
      result.states_pruned_by_bound += dp.states_pruned_by_bound;
      result.pruned += dp.pruned;
      result.max_level_states =
          std::max(result.max_level_states, dp.max_level_states);
      dp_status = dp.status;
      schedule = std::move(dp.schedule);
    }
    status = SegmentStatus(segment.subgraph.name(), dp_status);
    if (!status.ok()) break;
    segment_schedules.push_back(std::move(schedule));
    if (remaining() <= 0) status = deadline_expired();
  }

  const bool degradable =
      status.code() == util::StatusCode::kDeadlineExceeded ||
      status.code() == util::StatusCode::kResourceExhausted;
  const graph::Graph& whole = result.scheduled_graph;
  if (status.ok()) {
    result.schedule = CombineSegmentSchedules(partition, segment_schedules);
    result.peak_bytes = sched::PeakFootprint(whole, result.schedule);
    result.best_known_peak_bytes = result.peak_bytes;
  } else if (degradable && options_.degrade_on_deadline) {
    // Degradation ladder: beam, then the greedy floor, over the whole
    // rewritten graph (partial segment schedules are discarded — both
    // fallbacks are orders of magnitude cheaper than what just timed
    // out). The better peak wins; quality records the winning rung.
    result.degrade_reason =
        status.code() == util::StatusCode::kResourceExhausted
            ? DegradeReason::kMemory
            : DegradeReason::kDeadline;
    status = util::OkStatus();
    const graph::BufferUseTable table = graph::BufferUseTable::Build(whole);
    const sched::Schedule greedy = sched::GreedyMemorySchedule(whole, table);
    const std::int64_t greedy_peak =
        sched::EvaluateFootprint(whole, table, greedy).peak_bytes;
    result.schedule = greedy;
    result.peak_bytes = greedy_peak;
    result.quality = PlanQuality::kGreedy;
    result.best_known_peak_bytes = std::min(greedy_peak, best_seed_bytes);
    sched::BeamOptions beam_options;
    beam_options.width = kDegradedBeamWidth;
    beam_options.memory_budget = options_.memory_budget;
    beam_options.cancel = options_.cancel;
    sched::BeamResult beam = sched::ScheduleBeam(
        whole, ExpansionTables(whole, table, graph::BuildAdjacency(whole)),
        beam_options);
    result.states_expanded += beam.states_expanded;
    // A beam refused by the budget (or cancelled) leaves the greedy
    // floor standing — greedy needs no level storage, so a degraded
    // answer always exists.
    if (beam.status.ok()) {
      result.best_known_peak_bytes =
          std::min(result.best_known_peak_bytes, beam.peak_bytes);
      if (beam.peak_bytes < greedy_peak) {
        result.schedule = std::move(beam.schedule);
        result.peak_bytes = beam.peak_bytes;
        result.quality = PlanQuality::kBeam;
      }
    }
    SERENITY_CHECK(sched::IsTopologicalOrder(whole, result.schedule))
        << "degraded schedule is not a valid topological order";
  }
  // A cancel (the requester is gone, so degrading would burn work nobody
  // reads) or an undegradable failure leaves the schedule empty. Partial
  // levels were unwound, and their budget charges refunded, inside the
  // aborted search.
  result.status = std::move(status);
  result.schedule_seconds = stage_clock.ElapsedSeconds();
  result.total_seconds = total_clock.ElapsedSeconds();
  return result;
}

}  // namespace serenity::core
