#include "sched/beam.h"

#include <cstddef>
#include <limits>
#include <utility>

#include "core/dp_scheduler.h"
#include "core/state_store.h"
#include "util/logging.h"

namespace serenity::sched {

BeamResult ScheduleBeam(const graph::Graph& graph,
                        const core::ExpansionTables& tables,
                        const BeamOptions& options) {
  SERENITY_CHECK_GT(options.width, 0);
  core::DpOptions dp_options;
  dp_options.incumbent_bytes = options.prune_above_bytes;
  dp_options.max_states = std::numeric_limits<std::uint64_t>::max();
  dp_options.memory_budget = options.memory_budget;
  dp_options.cancel = options.cancel;
  core::DpResult run = core::ScheduleDpBeam(
      tables, dp_options, static_cast<std::size_t>(options.width));

  BeamResult result;
  result.states_expanded = run.transitions;
  switch (run.status) {
    case core::DpStatus::kSolution:
      result.schedule = std::move(run.schedule);
      result.peak_bytes = run.peak_bytes;
      SERENITY_CHECK(IsTopologicalOrder(graph, result.schedule));
      break;
    case core::DpStatus::kNoSolution:
      // Every width-limited continuation exceeded the caller's bound; the
      // incumbent that bound came from is already at least as good.
      result.status =
          util::NotFoundError("beam: every path exceeded prune_above_bytes");
      break;
    case core::DpStatus::kCancelled:
      result.status = util::CancelledError("beam: cancelled");
      break;
    case core::DpStatus::kResourceExhausted:
      result.status = util::ResourceExhaustedError("beam: budget exhausted");
      break;
    case core::DpStatus::kTimeout:
      // No step timeout and no state cap were set.
      SERENITY_CHECK(false) << "beam: unexpected timeout";
      break;
  }
  return result;
}

BeamResult ScheduleBeam(const graph::Graph& graph,
                        const BeamOptions& options) {
  return ScheduleBeam(graph,
                      core::ExpansionTables(
                          graph, graph::BufferUseTable::Build(graph),
                          graph::BuildAdjacency(graph)),
                      options);
}

}  // namespace serenity::sched
