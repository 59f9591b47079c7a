#include "sched/beam.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "core/state_store.h"
#include "graph/analysis.h"
#include "util/bitset.h"
#include "util/logging.h"

namespace serenity::sched {

BeamResult ScheduleBeam(const graph::Graph& graph,
                        const BeamOptions& options) {
  SERENITY_CHECK_GT(graph.num_nodes(), 0);
  SERENITY_CHECK_GT(options.width, 0);
  const std::size_t n = static_cast<std::size_t>(graph.num_nodes());
  const core::ExpansionTables tables = core::ExpansionTables::Build(graph);
  const core::SignatureHasher hasher(n);
  const std::size_t words = tables.words_per_state();
  const std::size_t width = static_cast<std::size_t>(options.width);

  BeamResult result;
  std::vector<std::vector<core::ReconRecord>> recon(n + 1);

  // Resource governance: a high-water reservation covering the tables, the
  // two live levels and the reconstruction records, trued up per level
  // (beam levels are bounded by `width`, so level granularity is tight);
  // cancellation polled per level and every ~4096 expansions.
  util::BudgetReservation reservation(options.memory_budget);
  std::int64_t recon_bytes = 0;
  const std::int64_t fixed_bytes =
      tables.ResidentBytes() + static_cast<std::int64_t>(2 * n * 8);
  const auto cancelled = [&options] {
    return options.cancel != nullptr && options.cancel->cancelled();
  };
  if (!reservation.EnsureAtLeast(fixed_bytes)) {
    result.status = util::ResourceExhaustedError("beam: budget exhausted");
    return result;
  }

  // Every beam level is bounded, the root included: bounded levels store
  // no frontier masks, and each parent's frontier is recomputed below.
  core::StateLevel current;
  current.InitBounded(words, 1);
  const std::vector<std::uint64_t> empty(words, 0);
  current.InsertBounded(empty.data(), core::SignatureHasher::kEmptyHash, 0, 0,
                        0, -1, -1);
  current.SealBounded();

  // Branch-and-bound cut (see BeamOptions::prune_above_bytes). `bounding`
  // is loop-invariant, so the default path pays one predictable branch.
  const std::int64_t bound = options.prune_above_bytes;
  const bool bounding =
      bound != std::numeric_limits<std::int64_t>::max();

  std::vector<std::int32_t> frontier;
  std::vector<std::uint64_t> child(words);
  core::ExpansionTables::FrontierAllocs allocs;
  for (std::size_t level = 0; level < n; ++level) {
    if (cancelled()) {
      result.status = util::CancelledError("beam: cancelled");
      return result;
    }
    // Streaming top-`width` level: pruning happens inside InsertBounded, so
    // the transient high-water memory is width + 1 states regardless of how
    // many children the parent level generates — the old seal → copy →
    // nth_element path materialized them all first.
    core::StateLevel next;
    next.InitBounded(words, width);
    for (std::size_t s = 0; s < current.size(); ++s) {
      const std::uint64_t* sig = current.signature(s);
      frontier.clear();
      tables.AppendFrontier(sig, &frontier);
      const std::int64_t footprint = current.footprint(s);
      const std::int64_t peak = current.peak(s);
      const std::uint64_t hash = current.hash(s);
      if (bounding) {
        // The DP's one-step frontier-alloc floor, streamed: every child of
        // this state takes a step of at least footprint + min alloc.
        tables.ComputeFrontierAllocs(sig, frontier, &allocs);
        if (allocs.min1 != core::ExpansionTables::kNoAlloc &&
            footprint + allocs.min1 > bound) {
          continue;
        }
      }
      for (const std::int32_t u : frontier) {
        ++result.states_expanded;
        if ((result.states_expanded & 0xfff) == 0 && cancelled()) {
          result.status = util::CancelledError("beam: cancelled");
          return result;
        }
        const core::ExpansionTables::Transition t = tables.Apply(
            sig, u, footprint,
            bounding ? bound : std::numeric_limits<std::int64_t>::max());
        if (bounding && t.step_peak > bound) continue;
        std::copy(sig, sig + words, child.data());
        util::SpanSetBit(child.data(), static_cast<std::size_t>(u));
        // Dedup signatures within the level exactly as in the DP (beam =
        // DP with a truncated frontier); states ranked by the intrinsic
        // (peak, footprint, hash, signature) order, so the survivors equal
        // the batch dedup + prune of the reference path bit for bit.
        next.InsertBounded(child.data(),
                           hash ^ hasher.key(static_cast<std::size_t>(u)),
                           t.footprint, std::max(peak, t.step_peak),
                           hasher.candidate_tie(
                               hash, static_cast<std::size_t>(u)),
                           static_cast<std::int32_t>(s), u);
      }
    }
    if (bounding && next.size() == 0) {
      // Every width-limited continuation exceeded the caller's bound; the
      // incumbent that bound came from is already at least as good.
      result.status =
          util::NotFoundError("beam: every path exceeded prune_above_bytes");
      return result;
    }
    SERENITY_CHECK_GT(next.size(), 0u) << "graph has a cycle?";
    next.SealBounded();
    recon[level] = current.TakeReconAndRelease();
    recon_bytes += static_cast<std::int64_t>(recon[level].capacity() *
                                             sizeof(core::ReconRecord));
    current = std::move(next);
    if (!reservation.EnsureAtLeast(fixed_bytes + recon_bytes +
                                   current.ResidentBytes())) {
      result.status = util::ResourceExhaustedError("beam: budget exhausted");
      return result;
    }
  }

  // SealBounded orders best-first, so state 0 of the final level is the
  // beam's answer (a DAG's full signature is unique; keep the defensive
  // scan anyway).
  std::size_t best = 0;
  for (std::size_t i = 1; i < current.size(); ++i) {
    if (current.peak(i) < current.peak(best)) best = i;
  }
  result.peak_bytes = current.peak(best);
  recon[n] = current.TakeReconAndRelease();
  result.schedule.assign(n, graph::kInvalidNode);
  std::int32_t cursor = static_cast<std::int32_t>(best);
  for (std::size_t i = n; i > 0; --i) {
    const core::ReconRecord& record =
        recon[i][static_cast<std::size_t>(cursor)];
    result.schedule[i - 1] = static_cast<graph::NodeId>(record.last_node);
    cursor = record.prev_index;
  }
  SERENITY_CHECK(IsTopologicalOrder(graph, result.schedule));
  return result;
}

}  // namespace serenity::sched
