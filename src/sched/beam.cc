#include "sched/beam.h"

#include <algorithm>
#include <limits>
#include <numeric>
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

  // Resource governance, charged exactly like the DP: a high-water
  // reservation covering the tables, the reconstruction records and the
  // two live levels — the next level's reserve before Init, its resident
  // bytes every ~4096 transitions and once per level after the seal and
  // cut. Cancellation is polled per level and on the same
  // ~4096-transition cadence.
  util::BudgetReservation reservation(options.memory_budget);
  std::int64_t recon_bytes = 0;
  const std::int64_t fixed_bytes =
      tables.ResidentBytes() + static_cast<std::int64_t>(2 * n * 8);
  const auto ensure_resident = [&](std::int64_t store_bytes) {
    return reservation.EnsureAtLeast(fixed_bytes + recon_bytes + store_bytes);
  };
  const auto cancelled = [&options] {
    return options.cancel != nullptr && options.cancel->cancelled();
  };
  if (!ensure_resident(0)) {
    result.status = util::ResourceExhaustedError("beam: budget exhausted");
    return result;
  }

  // The root's frontier mask is computed from scratch; every later state
  // derives its own from its parent's (ExpansionTables::ChildFrontier).
  core::StateLevel current;
  current.Init(words, 1);
  const std::vector<std::uint64_t> empty(words, 0);
  std::vector<std::uint64_t> root_frontier(words);
  tables.FrontierMask(empty.data(), root_frontier.data());
  current.InsertOrRelax(empty.data(), root_frontier.data(),
                        core::SignatureHasher::kEmptyHash, 0, 0, 0, -1, -1);
  current.Seal();

  // Branch-and-bound cut (see BeamOptions::prune_above_bytes). `bounding`
  // is loop-invariant, so the default path pays one predictable branch.
  const std::int64_t bound = options.prune_above_bytes;
  const bool bounding =
      bound != std::numeric_limits<std::int64_t>::max();

  std::vector<std::int32_t> frontier;
  std::vector<std::int32_t> newly_ready;
  std::vector<std::int32_t> keep;
  std::vector<std::uint64_t> child(words);
  std::vector<std::uint64_t> child_mask(words);
  core::ExpansionTables::FrontierAllocs allocs;
  for (std::size_t level = 0; level < n; ++level) {
    if (cancelled()) {
      result.status = util::CancelledError("beam: cancelled");
      return result;
    }
    const std::size_t hint = core::NextLevelReserveHint(
        current.size(), std::numeric_limits<std::uint64_t>::max());
    if (!ensure_resident(current.ResidentBytes() +
                         core::StateLevel::EstimateBytes(words, hint))) {
      result.status = util::ResourceExhaustedError("beam: budget exhausted");
      return result;
    }
    // A DP level (beam = DP with a truncated level): every deduplicated
    // child is kept until Seal, then the level is cut below.
    core::StateLevel next;
    next.Init(words, hint);
    for (std::size_t s = 0; s < current.size(); ++s) {
      const std::uint64_t* sig = current.signature(s);
      const std::uint64_t* mask = current.frontier(s);
      frontier.clear();
      util::SpanAppendSetBits(mask, words, &frontier);
      const std::int64_t footprint = current.footprint(s);
      const std::int64_t peak = current.peak(s);
      const std::uint64_t hash = current.hash(s);
      if (bounding) {
        // The DP's one-step frontier-alloc floor: every child of
        // this state takes a step of at least footprint + min alloc.
        tables.ComputeFrontierAllocs(sig, frontier, &allocs);
        if (allocs.min1 != core::ExpansionTables::kNoAlloc &&
            footprint + allocs.min1 > bound) {
          continue;
        }
      }
      for (const std::int32_t u : frontier) {
        ++result.states_expanded;
        if ((result.states_expanded & 0xfff) == 0) {
          if (cancelled()) {
            result.status = util::CancelledError("beam: cancelled");
            return result;
          }
          if (!ensure_resident(current.ResidentBytes() +
                               next.ResidentBytes())) {
            result.status =
                util::ResourceExhaustedError("beam: budget exhausted");
            return result;
          }
        }
        const core::ExpansionTables::Transition t = tables.Apply(
            sig, u, footprint,
            bounding ? bound : std::numeric_limits<std::int64_t>::max());
        if (bounding && t.step_peak > bound) continue;
        std::copy(sig, sig + words, child.data());
        util::SpanSetBit(child.data(), static_cast<std::size_t>(u));
        tables.ChildFrontier(mask, child.data(), u, child_mask.data(),
                             &newly_ready);
        next.InsertOrRelax(child.data(), child_mask.data(),
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
    next.Seal();
    std::int64_t level_bytes = current.ResidentBytes() + next.ResidentBytes();
    if (next.size() > width) {
      // Keep the `width` best by the intrinsic total order (peak,
      // footprint, hash, signature words): a state's rank depends only on
      // its value, never on arrival order, so the survivors are a pure
      // function of the deduplicated level.
      keep.resize(next.size());
      std::iota(keep.begin(), keep.end(), 0);
      const auto less = [&next, words](std::int32_t a, std::int32_t b) {
        const std::size_t ia = static_cast<std::size_t>(a);
        const std::size_t ib = static_cast<std::size_t>(b);
        if (next.peak(ia) != next.peak(ib)) {
          return next.peak(ia) < next.peak(ib);
        }
        if (next.footprint(ia) != next.footprint(ib)) {
          return next.footprint(ia) < next.footprint(ib);
        }
        if (next.hash(ia) != next.hash(ib)) {
          return next.hash(ia) < next.hash(ib);
        }
        return std::lexicographical_compare(
            next.signature(ia), next.signature(ia) + words,
            next.signature(ib), next.signature(ib) + words);
      };
      std::partial_sort(keep.begin(), keep.begin() + width, keep.end(), less);
      keep.resize(width);
      core::StateLevel cut = next.Select(keep);
      level_bytes += cut.ResidentBytes();
      next = std::move(cut);
    }
    if (!ensure_resident(level_bytes)) {
      result.status = util::ResourceExhaustedError("beam: budget exhausted");
      return result;
    }
    recon[level] = current.TakeReconAndRelease();
    recon_bytes += static_cast<std::int64_t>(recon[level].capacity() *
                                             sizeof(core::ReconRecord));
    current = std::move(next);
  }

  // A DAG has exactly one full signature.
  SERENITY_CHECK_EQ(current.size(), 1u);
  result.peak_bytes = current.peak(0);
  recon[n] = current.TakeReconAndRelease();
  result.schedule.assign(n, graph::kInvalidNode);
  std::int32_t cursor = 0;
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
