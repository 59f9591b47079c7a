#include "core/dp_scheduler.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include "core/state_store.h"
#include "graph/analysis.h"
#include "testing/fault_injection.h"
#include "util/bitset.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace serenity::core {

const char* ToString(DpStatus status) {
  switch (status) {
    case DpStatus::kSolution:
      return "solution";
    case DpStatus::kNoSolution:
      return "no solution";
    case DpStatus::kTimeout:
      return "timeout";
    case DpStatus::kResourceExhausted:
      return "resource exhausted";
    case DpStatus::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

namespace {

// The exact DP's level width: no level is ever cut.
constexpr std::size_t kUnlimitedWidth = std::numeric_limits<std::size_t>::max();

// A sealed level's `width` best states by the intrinsic total order (peak,
// footprint, hash, signature words). A state's rank depends only on its
// value, never on its arrival position, so the survivors are a pure
// function of the deduplicated level.
StateLevel KeepBest(const StateLevel& level, std::size_t width) {
  const std::size_t words = level.words_per_state();
  std::vector<std::int32_t> keep(level.size());
  std::iota(keep.begin(), keep.end(), 0);
  const auto less = [&level, words](std::int32_t a, std::int32_t b) {
    const std::size_t ia = static_cast<std::size_t>(a);
    const std::size_t ib = static_cast<std::size_t>(b);
    if (level.peak(ia) != level.peak(ib)) {
      return level.peak(ia) < level.peak(ib);
    }
    if (level.footprint(ia) != level.footprint(ib)) {
      return level.footprint(ia) < level.footprint(ib);
    }
    if (level.hash(ia) != level.hash(ib)) {
      return level.hash(ia) < level.hash(ib);
    }
    return std::lexicographical_compare(
        level.signature(ia), level.signature(ia) + words,
        level.signature(ib), level.signature(ib) + words);
  };
  std::partial_sort(keep.begin(),
                    keep.begin() + static_cast<std::ptrdiff_t>(width),
                    keep.end(), less);
  keep.resize(width);
  return level.Select(keep);
}

class DpRunner {
 public:
  DpRunner(const ExpansionTables& tables, const DpOptions& options,
           std::size_t width)
      : options_(options),
        tables_(tables),
        hasher_(tables.num_nodes()),
        num_nodes_(tables.num_nodes()),
        words_(tables_.words_per_state()),
        width_(width),
        floor_pruning_(options.incumbent_bytes != kNoBudget &&
                       width == kUnlimitedWidth),
        incumbent_(options.incumbent_bytes),
        cancel_(options.cancel),
        reservation_(options.memory_budget) {}

  DpResult Run() {
    util::Stopwatch total_clock;
    DpResult result;
    recon_.resize(num_nodes_ + 1);

    // Fixed overhead of the run: graph-side expansion tables plus the two
    // Zobrist key streams. Charged up front so a budget below even the
    // constants fails before any level is built.
    fixed_bytes_ = tables_.ResidentBytes() +
                   static_cast<std::int64_t>(2 * num_nodes_ * 8);
    if (!reservation_.EnsureAtLeast(fixed_bytes_)) {
      result.status = DpStatus::kResourceExhausted;
      return Finish(result, total_clock);
    }

    // Level 0: the empty schedule (Algorithm 1 lines 4-5). Its frontier
    // mask is the one computed from scratch; every later state derives its
    // own from its parent's (ExpansionTables::ChildFrontier).
    StateLevel current;
    current.Init(words_, 1);
    const std::vector<std::uint64_t> empty(words_, 0);
    std::vector<std::uint64_t> root_frontier(words_);
    tables_.FrontierMask(empty.data(), root_frontier.data());
    current.Insert(current.Find(empty.data(), SignatureHasher::kEmptyHash),
                   empty.data(), root_frontier.data(),
                   SignatureHasher::kEmptyHash, 0, 0, 0, -1, -1);
    current.Seal();

    for (std::size_t i = 0; i < num_nodes_; ++i) {
      util::Stopwatch level_clock;
      if (current.size() == 0) {
        // Every prefix of length i was pruned: the budget is below µ*.
        // (Bound pruning alone cannot empty a level — states on an optimal
        // path never exceed a valid incumbent.)
        result.status = DpStatus::kNoSolution;
        return Finish(result, total_clock);
      }
      if (CancelRequested()) {
        result.status = DpStatus::kCancelled;
        return Finish(result, total_clock);
      }
      const std::size_t hint =
          NextLevelReserveHint(current.size(), options_.max_states);
      // Charge the next level's reserve before it allocates. The estimate
      // mirrors Init's reserve math exactly, so a successful charge means
      // Init itself stays within the reservation.
      if (!EnsureResident(current.ResidentBytes() +
                          StateLevel::EstimateBytes(words_, hint))) {
        result.status = DpStatus::kResourceExhausted;
        return Finish(result, total_clock);
      }
      StateLevel next;
      next.Init(words_, hint);
      const bool completed = ExpandLevel(current, next, level_clock);
      if (!completed ||
          level_clock.ElapsedSeconds() > options_.step_timeout_seconds) {
        result.status = completed ? DpStatus::kTimeout : AbortStatus();
        return Finish(result, total_clock);
      }
      next.Seal();
      max_level_states_ =
          std::max(max_level_states_,
                   static_cast<std::uint64_t>(next.size()));
      if (next.size() > width_) {
        // Beam search: the level is cut to its `width_` best. The cut copy
        // briefly coexists with the sealed level, so it is charged too.
        StateLevel cut = KeepBest(next, width_);
        if (!EnsureResident(current.ResidentBytes() + next.ResidentBytes() +
                            cut.ResidentBytes())) {
          result.status = DpStatus::kResourceExhausted;
          return Finish(result, total_clock);
        }
        next = std::move(cut);
      }
      // The finished level keeps only its 8-byte reconstruction records;
      // signatures, hashes, footprints and peaks are freed here.
      recon_[i] = current.TakeReconAndRelease();
      recon_bytes_ += static_cast<std::int64_t>(recon_[i].capacity() *
                                                sizeof(ReconRecord));
      current = std::move(next);
    }

    if (current.size() == 0) {
      result.status = DpStatus::kNoSolution;
    } else {
      // A DAG has exactly one full signature (Algorithm 1 line 27).
      SERENITY_CHECK_EQ(current.size(), 1u);
      result.status = DpStatus::kSolution;
      result.peak_bytes = current.peak(0);
      recon_[num_nodes_] = current.TakeReconAndRelease();
      result.schedule = Reconstruct();
    }
    return Finish(result, total_clock);
  }

 private:
  // Why an expansion returned false. kTimeout keeps its historical meaning
  // (step timeout or state cap); memory and cancellation get their own
  // statuses so the pipeline can degrade or unwind accordingly.
  enum class Abort { kTimeout, kMemory, kCancelled };

  DpResult Finish(DpResult result, const util::Stopwatch& clock) const {
    result.states_expanded = states_expanded_;
    result.transitions = transitions_;
    result.pruned = pruned_;
    result.states_pruned_by_bound = pruned_.Total();
    result.max_level_states = max_level_states_;
    result.seconds = clock.ElapsedSeconds();
    return result;
  }

  DpStatus AbortStatus() const {
    switch (abort_) {
      case Abort::kMemory: return DpStatus::kResourceExhausted;
      case Abort::kCancelled: return DpStatus::kCancelled;
      case Abort::kTimeout: break;
    }
    return DpStatus::kTimeout;
  }

  // Sticky cancellation poll. The kCancelPoll fault is consulted only when
  // a token is attached (a cancellable context), so runs without one are
  // immune to an armed countdown; sticky because the one-shot fault cannot
  // re-fire on the next poll.
  bool CancelRequested() {
    if (cancelled_) return true;
    if (cancel_ == nullptr) return false;
    if (cancel_->cancelled() ||
        testing::FaultTriggered(testing::FaultPoint::kCancelPoll)) {
      cancelled_ = true;
      return true;
    }
    return false;
  }

  // Grows the run's high-water reservation to cover the state store's
  // current resident bytes (plus the fixed overhead and the accumulated
  // reconstruction records). Monotone: completed-level transients are
  // dropped eagerly but the reservation keeps the run's peak until the
  // whole run ends — the budget governs peaks, not instantaneous usage.
  bool EnsureResident(std::int64_t store_bytes) {
    return reservation_.EnsureAtLeast(fixed_bytes_ + recon_bytes_ +
                                      store_bytes);
  }

  // Expansion of one level (Algorithm 1 lines 9-24, plus the branch-and-
  // bound cuts: step peak, then child floor, each against the incumbent;
  // the floor runs only at unlimited width, see ScheduleDpBeam).
  // A parent's frontier is read off its stored mask. If some frontier node
  // is eager, the parent's only child is the one scheduling the lowest
  // such node. Each candidate child then goes through cuts, lookup, and
  // relax or derive (DESIGN.md "Lookup before derivation"): the step cuts
  // need only the step peak; a child the next level already holds is only
  // relaxed; a new child gets its mask from one successor scan (whose newly
  // ready nodes also feed the floor), then its footprint from the free
  // scan, then the floor, and fills the slot its lookup found. Returns
  // false on step timeout, state-cap overrun, cancellation or a denied
  // budget true-up.
  bool ExpandLevel(const StateLevel& current, StateLevel& next,
                   const util::Stopwatch& level_clock) {
    std::vector<std::int32_t> frontier;
    std::vector<std::int64_t> step_peaks;
    std::vector<std::int32_t> newly_ready;
    std::vector<std::uint64_t> child(words_);
    std::vector<std::uint64_t> child_mask(words_);
    ExpansionTables::FrontierAllocs allocs;
    for (std::size_t s = 0; s < current.size(); ++s) {
      if ((s & 0x3f) == 0 && s != 0 &&
          !CheckLimits(current, next, level_clock)) {
        return false;
      }
      const std::uint64_t* sig = current.signature(s);
      const std::uint64_t* mask = current.frontier(s);
      const std::int64_t peak = current.peak(s);
      const std::int64_t footprint = current.footprint(s);
      const std::uint64_t hash = current.hash(s);
      frontier.clear();
      util::SpanAppendSetBits(mask, words_, &frontier);
      // The children's floors come from these allocs, computed once per
      // parent; the has_cowriter fast path keeps the scan cheap.
      if (floor_pruning_) tables_.ComputeFrontierAllocs(sig, frontier, &allocs);
      // Eager step (DESIGN.md "Eager non-increasing steps"): a node whose
      // step stays within the parent's peak and whose footprint does not
      // grow can go first in some optimal completion, so it is the
      // parent's only child. The frontier is ascending, so the lowest such
      // node wins. Only a step within the peak needs the free scan.
      std::size_t begin = 0;
      std::size_t end = frontier.size();
      step_peaks.clear();
      for (std::size_t fi = 0; fi < frontier.size(); ++fi) {
        const std::int64_t step_peak =
            tables_.StepPeak(sig, frontier[fi], footprint);
        step_peaks.push_back(step_peak);
        if (step_peak <= peak &&
            step_peak - tables_.FreedBytes(sig, frontier[fi]) <= footprint) {
          begin = fi;
          end = fi + 1;
          break;
        }
      }
      for (std::size_t fi = begin; fi < end; ++fi) {
        const std::int32_t u = frontier[fi];
        const std::size_t ui = static_cast<std::size_t>(u);
        const std::int64_t step_peak = step_peaks[fi];
        ++transitions_;
        // Re-check the limits every ~4096 transitions so a single
        // pathological state expansion cannot overshoot them unboundedly.
        if ((transitions_ & 0xfff) == 0 &&
            !CheckLimits(current, next, level_clock)) {
          return false;
        }
        if (step_peak > options_.budget_bytes) continue;  // prune (§3.2)
        if (step_peak > incumbent_) {
          ++pruned_.incumbent;
          continue;
        }
        std::copy(sig, sig + words_, child.data());
        util::SpanSetBit(child.data(), ui);
        const std::uint64_t child_hash = hash ^ hasher_.key(ui);
        const std::int64_t child_peak = std::max(peak, step_peak);
        const std::uint64_t tie = hasher_.candidate_tie(hash, ui);
        const std::int32_t parent = static_cast<std::int32_t>(s);
        // A child the next level already holds passed the floor, and its
        // footprint and mask are functions of its signature: relax it and
        // skip the derivation.
        const StateLevel::Probe probe = next.Find(child.data(), child_hash);
        if (probe.state >= 0) {
          next.Relax(probe.state, child_peak, tie, parent, u);
          continue;
        }
        tables_.ChildFrontier(mask, child.data(), u, child_mask.data(),
                              &newly_ready);
        const std::int64_t child_footprint =
            step_peak - tables_.FreedBytes(sig, u);
        // One-step frontier floor (DESIGN.md "Branch-and-bound over
        // levels"): whatever the child schedules next allocates at least
        // the floor, so footprint + floor STRICTLY above the incumbent
        // proves every completion is worse than a schedule already in
        // hand. A pure function of the child signature, so the duplicates
        // relaxed above would all agree with it, and relax winners (hence
        // the reconstructed schedule) are the unpruned search's.
        if (floor_pruning_) {
          const std::int64_t floor = tables_.ChildNextAllocFloor(
              child.data(), u, allocs, newly_ready);
          if (floor != ExpansionTables::kNoAlloc &&
              child_footprint + floor > incumbent_) {
            ++pruned_.frontier_floor;
            continue;
          }
        }
        next.Insert(probe, child.data(), child_mask.data(), child_hash,
                    child_footprint, child_peak, tie, parent, u);
        ++states_expanded_;
      }
      if (states_expanded_ > options_.max_states) {
        abort_ = Abort::kTimeout;
        return false;
      }
    }
    return true;
  }

  // The per-cadence limit probe: step timeout (and state cap, checked per
  // parent above) stay kTimeout; cancellation and a denied budget true-up
  // get their own abort reasons.
  bool CheckLimits(const StateLevel& current, const StateLevel& next,
                   const util::Stopwatch& level_clock) {
    if (level_clock.ElapsedSeconds() > options_.step_timeout_seconds) {
      abort_ = Abort::kTimeout;
      return false;
    }
    if (CancelRequested()) {
      abort_ = Abort::kCancelled;
      return false;
    }
    if (!EnsureResident(current.ResidentBytes() + next.ResidentBytes())) {
      abort_ = Abort::kMemory;
      return false;
    }
    return true;
  }

  sched::Schedule Reconstruct() const {
    sched::Schedule schedule(num_nodes_, graph::kInvalidNode);
    std::int32_t index = 0;
    for (std::size_t i = num_nodes_; i > 0; --i) {
      const ReconRecord& record =
          recon_[i][static_cast<std::size_t>(index)];
      schedule[i - 1] = static_cast<graph::NodeId>(record.last_node);
      index = record.prev_index;
    }
    return schedule;
  }

  const DpOptions options_;
  const ExpansionTables& tables_;  // the caller's; outlives the run
  const SignatureHasher hasher_;
  const std::size_t num_nodes_;
  const std::size_t words_;
  // States kept per sealed level (kUnlimitedWidth for the exact DP).
  const std::size_t width_;
  const bool floor_pruning_;
  const std::int64_t incumbent_;
  const util::CancelToken* const cancel_;
  // High-water byte reservation against options_.memory_budget; refunded
  // in full when the runner is destroyed.
  util::BudgetReservation reservation_;
  std::int64_t fixed_bytes_ = 0;
  std::int64_t recon_bytes_ = 0;
  bool cancelled_ = false;
  Abort abort_ = Abort::kTimeout;
  std::vector<std::vector<ReconRecord>> recon_;
  std::uint64_t states_expanded_ = 0;
  std::uint64_t transitions_ = 0;
  std::uint64_t max_level_states_ = 0;
  // Prune attribution, whole-run totals.
  PruneBreakdown pruned_;
};

}  // namespace

DpResult ScheduleDp(const ExpansionTables& tables, const DpOptions& options) {
  return ScheduleDpBeam(tables, options, kUnlimitedWidth);
}

DpResult ScheduleDp(const graph::Graph& graph, const DpOptions& options) {
  return ScheduleDp(ExpansionTables(graph, graph::BufferUseTable::Build(graph),
                                    graph::BuildAdjacency(graph)),
                    options);
}

DpResult ScheduleDpBeam(const ExpansionTables& tables,
                        const DpOptions& options, std::size_t width) {
  SERENITY_CHECK_GT(tables.num_nodes(), 0u)
      << "cannot schedule an empty graph";
  SERENITY_CHECK_GT(width, 0u);
  return DpRunner(tables, options, width).Run();
}

}  // namespace serenity::core
