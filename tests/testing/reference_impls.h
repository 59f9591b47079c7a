// Reference implementations of the beam scheduler, the arena planner and
// the hierarchy simulator, kept as the oracles of the property suites
// (bnb_property_test, arena_planner_property_test,
// hierarchy_sim_property_test).
//
// The planner and simulator are the seed algorithms verbatim — quadratic
// conflict scans, the O(placements x steps) highwater fill, the
// O(resident) eviction scan — with one deliberate change:
// `ReferenceSimulateHierarchy` breaks eviction ties to the lowest page id
// (the seed's strict `>` picked whichever tied page was fetched first, an
// accident of resident-list insertion order).
// The production implementations in src/sched, src/alloc and src/memsim
// must stay bit-identical to these on every input.
#ifndef SERENITY_TESTS_TESTING_REFERENCE_IMPLS_H_
#define SERENITY_TESTS_TESTING_REFERENCE_IMPLS_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "alloc/arena_planner.h"
#include "core/state_store.h"
#include "graph/analysis.h"
#include "graph/graph.h"
#include "memsim/hierarchy_sim.h"
#include "sched/beam.h"
#include "sched/schedule.h"
#include "util/bitset.h"
#include "util/logging.h"

namespace serenity::testing {

// ------------------------------------------------------- beam (seal & copy)
//
// The beam written as plainly as possible: every level materializes ALL
// deduplicated children (Find, then Relax or Insert), seals, and is then
// fully sorted by the intrinsic total order (peak, footprint, hash,
// signature words) and cut to the `width` best via Select. Every child is
// derived in full, duplicates included, and a duplicate's footprint must
// equal the stored one (the production walk relaxes a found child without
// deriving it). Every frontier mask is computed from scratch
// (FrontierMask), so the reference does not share the production beam's
// incremental ChildFrontier or its partial_sort cut; `bnb_property_test`
// pins the two to the same survivors, tie-breaks included.
//
// `eager` applies the production walk's eager rule: a state whose frontier
// holds a node with step peak <= the state's peak and footprint <= the
// state's footprint expands only the first such node in ascending order.
// With `eager` false (and a width no level outgrows) the walk is the
// unreduced exhaustive DP, the oracle the reduction is checked against.

inline sched::BeamResult ReferenceScheduleBeam(const graph::Graph& graph,
                                               const sched::BeamOptions&
                                                   options,
                                               bool eager = true) {
  SERENITY_CHECK_GT(graph.num_nodes(), 0);
  SERENITY_CHECK_GT(options.width, 0);
  const std::size_t n = static_cast<std::size_t>(graph.num_nodes());
  const core::ExpansionTables tables(graph,
                                     graph::BufferUseTable::Build(graph),
                                     graph::BuildAdjacency(graph));
  const core::SignatureHasher hasher(n);
  const std::size_t words = tables.words_per_state();
  const std::size_t width = static_cast<std::size_t>(options.width);

  sched::BeamResult result;
  std::vector<std::vector<core::ReconRecord>> recon(n + 1);

  core::StateLevel current;
  current.Init(words, 1);
  const std::vector<std::uint64_t> empty(words, 0);
  std::vector<std::uint64_t> child_mask(words);
  tables.FrontierMask(empty.data(), child_mask.data());
  current.Insert(current.Find(empty.data(), core::SignatureHasher::kEmptyHash),
                 empty.data(), child_mask.data(),
                 core::SignatureHasher::kEmptyHash, 0, 0, 0, -1, -1);
  current.Seal();

  // The intrinsic total order, on a sealed level.
  const auto less = [words](const core::StateLevel& level, std::int32_t a,
                            std::int32_t b) {
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
    const std::uint64_t* sa = level.signature(ia);
    const std::uint64_t* sb = level.signature(ib);
    for (std::size_t w = 0; w < words; ++w) {
      if (sa[w] != sb[w]) return sa[w] < sb[w];
    }
    return false;
  };

  std::vector<std::int32_t> frontier;
  std::vector<std::uint64_t> child(words);
  for (std::size_t level = 0; level < n; ++level) {
    core::StateLevel next;
    next.Init(words, core::NextLevelReserveHint(
                         current.size(),
                         std::numeric_limits<std::uint64_t>::max()));
    for (std::size_t s = 0; s < current.size(); ++s) {
      const std::uint64_t* sig = current.signature(s);
      frontier.clear();
      util::SpanAppendSetBits(current.frontier(s), words, &frontier);
      const std::int64_t footprint = current.footprint(s);
      const std::int64_t peak = current.peak(s);
      const std::uint64_t hash = current.hash(s);
      std::int32_t first_eager = -1;
      if (eager) {
        for (const std::int32_t u : frontier) {
          const std::int64_t step_peak = tables.StepPeak(sig, u, footprint);
          if (step_peak <= peak &&
              step_peak - tables.FreedBytes(sig, u) <= footprint) {
            first_eager = u;
            break;
          }
        }
      }
      if (first_eager >= 0) frontier.assign(1, first_eager);
      for (const std::int32_t u : frontier) {
        ++result.states_expanded;
        const std::int64_t step_peak = tables.StepPeak(sig, u, footprint);
        const std::int64_t child_footprint =
            step_peak - tables.FreedBytes(sig, u);
        std::copy(sig, sig + words, child.data());
        util::SpanSetBit(child.data(), static_cast<std::size_t>(u));
        tables.FrontierMask(child.data(), child_mask.data());
        const std::uint64_t child_hash =
            hash ^ hasher.key(static_cast<std::size_t>(u));
        const std::uint64_t tie =
            hasher.candidate_tie(hash, static_cast<std::size_t>(u));
        const core::StateLevel::Probe probe =
            next.Find(child.data(), child_hash);
        if (probe.state >= 0) {
          SERENITY_CHECK_EQ(
              next.footprint(static_cast<std::size_t>(probe.state)),
              child_footprint);
          next.Relax(probe.state, std::max(peak, step_peak), tie,
                     static_cast<std::int32_t>(s), u);
        } else {
          next.Insert(probe, child.data(), child_mask.data(), child_hash,
                      child_footprint, std::max(peak, step_peak), tie,
                      static_cast<std::int32_t>(s), u);
        }
      }
    }
    next.Seal();
    SERENITY_CHECK_GT(next.size(), 0u);
    std::vector<std::int32_t> keep(next.size());
    std::iota(keep.begin(), keep.end(), 0);
    std::sort(keep.begin(), keep.end(),
              [&](std::int32_t a, std::int32_t b) { return less(next, a, b); });
    if (keep.size() > width) keep.resize(width);
    next = next.Select(keep);
    recon[level] = current.TakeReconAndRelease();
    current = std::move(next);
  }

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
  SERENITY_CHECK(sched::IsTopologicalOrder(graph, result.schedule));
  return result;
}

// ------------------------------------------------------------ arena planner

inline alloc::ArenaPlan ReferencePlanArena(
    const graph::Graph& graph, const graph::BufferUseTable& table,
    const sched::Schedule& schedule, std::int64_t alignment = 64) {
  using alloc::BufferPlacement;
  const auto align_up = [](std::int64_t value, std::int64_t alignment_) {
    return (value + alignment_ - 1) / alignment_ * alignment_;
  };

  struct Lifetime {
    int first_step = -1;
    int last_step = -1;
    bool used = false;
  };
  std::vector<Lifetime> lifetimes(table.buffers.size());
  for (std::size_t step = 0; step < schedule.size(); ++step) {
    const graph::NodeId id = schedule[step];
    for (const graph::BufferId b :
         table.touched_buffers[static_cast<std::size_t>(id)]) {
      Lifetime& life = lifetimes[static_cast<std::size_t>(b)];
      const bool writes = graph.node(id).buffer == b;
      if (writes && life.first_step < 0) {
        life.first_step = static_cast<int>(step);
        life.used = true;
      }
      life.last_step = static_cast<int>(step);
    }
  }
  const int last = static_cast<int>(schedule.size()) - 1;
  for (std::size_t b = 0; b < table.buffers.size(); ++b) {
    if (lifetimes[b].used && table.buffers[b].is_sink) {
      lifetimes[b].last_step = last;
    }
  }

  std::vector<graph::BufferId> order;
  for (std::size_t b = 0; b < lifetimes.size(); ++b) {
    if (lifetimes[b].used) order.push_back(static_cast<graph::BufferId>(b));
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](graph::BufferId a, graph::BufferId b) {
                     const Lifetime& la = lifetimes[static_cast<std::size_t>(a)];
                     const Lifetime& lb = lifetimes[static_cast<std::size_t>(b)];
                     const std::int64_t sa =
                         table.buffers[static_cast<std::size_t>(a)].size_bytes;
                     const std::int64_t sb =
                         table.buffers[static_cast<std::size_t>(b)].size_bytes;
                     if (sa != sb) return sa > sb;
                     return la.first_step < lb.first_step;
                   });

  alloc::ArenaPlan plan;
  plan.placements.reserve(order.size());
  for (const graph::BufferId b : order) {
    const Lifetime& life = lifetimes[static_cast<std::size_t>(b)];
    const std::int64_t size =
        std::max<std::int64_t>(table.buffers[static_cast<std::size_t>(b)]
                                   .size_bytes,
                               1);
    std::vector<const BufferPlacement*> conflicts;
    for (const BufferPlacement& p : plan.placements) {
      if (p.first_step <= life.last_step && life.first_step <= p.last_step) {
        conflicts.push_back(&p);
      }
    }
    std::sort(conflicts.begin(), conflicts.end(),
              [](const BufferPlacement* a, const BufferPlacement* b) {
                return a->offset < b->offset;
              });
    std::int64_t best_offset = -1;
    std::int64_t cursor = 0;
    const auto consider = [&](std::int64_t gap_start, std::int64_t gap_end) {
      const std::int64_t start = align_up(gap_start, alignment);
      if (gap_end - start < size) return;
      if (best_offset < 0) best_offset = start;
    };
    for (const BufferPlacement* p : conflicts) {
      if (p->offset > cursor) consider(cursor, p->offset);
      cursor = std::max(cursor, p->offset + p->size);
    }
    if (best_offset < 0) best_offset = align_up(cursor, alignment);
    plan.placements.push_back(BufferPlacement{
        b, best_offset, size, life.first_step, life.last_step});
    plan.arena_bytes = std::max(plan.arena_bytes, best_offset + size);
  }

  plan.highwater_at_step.assign(schedule.size(), 0);
  for (const BufferPlacement& p : plan.placements) {
    for (int step = p.first_step; step <= p.last_step; ++step) {
      auto& hw = plan.highwater_at_step[static_cast<std::size_t>(step)];
      hw = std::max(hw, p.offset + p.size);
    }
  }
  return plan;
}

inline alloc::ArenaPlan ReferencePlanArena(
    const graph::Graph& graph, const sched::Schedule& schedule,
    std::int64_t alignment = 64) {
  return ReferencePlanArena(graph, graph::BufferUseTable::Build(graph),
                            schedule, alignment);
}

// The seed's O(n^2) pairwise placement validator.
inline bool ReferenceValidatePlacements(const alloc::ArenaPlan& plan) {
  for (std::size_t i = 0; i < plan.placements.size(); ++i) {
    const alloc::BufferPlacement& a = plan.placements[i];
    if (a.offset < 0 || a.size <= 0) return false;
    // Mirrors ValidatePlacements' default alignment = sizeof(float).
    if (a.offset % static_cast<std::int64_t>(sizeof(float)) != 0) return false;
    if (a.offset + a.size > plan.arena_bytes) return false;
    for (std::size_t j = i + 1; j < plan.placements.size(); ++j) {
      const alloc::BufferPlacement& b = plan.placements[j];
      const bool time_overlap =
          a.first_step <= b.last_step && b.first_step <= a.last_step;
      const bool space_overlap =
          a.offset < b.offset + b.size && b.offset < a.offset + a.size;
      if (time_overlap && space_overlap) return false;
    }
  }
  return true;
}

// -------------------------------------------------------- hierarchy sim

inline memsim::SimResult ReferenceSimulateHierarchy(
    const graph::Graph& graph, const graph::BufferUseTable& table,
    const sched::Schedule& schedule, const memsim::SimOptions& options) {
  SERENITY_CHECK(sched::IsTopologicalOrder(graph, schedule));
  SERENITY_CHECK_GT(options.onchip_bytes, 0);
  SERENITY_CHECK_GT(options.page_bytes, 0);

  enum class TouchKind : std::uint8_t { kRead, kProduce, kRmw };
  struct Touch {
    std::int32_t page = 0;
    TouchKind kind = TouchKind::kRead;
    bool last_use = false;
  };
  struct PageState {
    bool resident = false;
    bool produced = false;
    bool dirty = false;
    bool has_offchip_copy = false;
    std::int64_t last_touch = -1;
    std::size_t next_use_cursor = 0;
  };

  memsim::SimResult result;
  if (options.onchip_bytes < options.page_bytes) {
    result.feasible = false;
    return result;
  }

  const std::size_t num_buffers = table.buffers.size();
  std::vector<std::int32_t> first_page(num_buffers + 1, 0);
  for (std::size_t b = 0; b < num_buffers; ++b) {
    const std::int64_t bytes = std::max<std::int64_t>(
        table.buffers[b].size_bytes, 1);
    const std::int64_t pages =
        (bytes + options.page_bytes - 1) / options.page_bytes;
    first_page[b + 1] = first_page[b] + static_cast<std::int32_t>(pages);
  }
  const std::size_t num_pages = static_cast<std::size_t>(
      first_page[num_buffers]);
  const auto page_size = [&](std::int32_t page) {
    const auto it = std::upper_bound(first_page.begin(), first_page.end(),
                                     page);
    const std::size_t b = static_cast<std::size_t>(
        it - first_page.begin() - 1);
    const std::int64_t offset = static_cast<std::int64_t>(
                                    page - first_page[b]) *
                                options.page_bytes;
    return std::min(options.page_bytes,
                    table.buffers[b].size_bytes - offset);
  };

  std::vector<bool> written_once(num_buffers, false);
  std::vector<Touch> trace;
  for (const graph::NodeId id : schedule) {
    const std::size_t uid = static_cast<std::size_t>(id);
    const graph::BufferId own = graph.node(id).buffer;
    const auto& reads = table.read_buffers[uid];
    const auto emit_reads = [&] {
      for (const graph::BufferId b : reads) {
        if (b == own) continue;
        for (std::int32_t p = first_page[static_cast<std::size_t>(b)];
             p < first_page[static_cast<std::size_t>(b) + 1]; ++p) {
          trace.push_back(Touch{p, TouchKind::kRead, false});
        }
      }
    };
    emit_reads();
    const bool rmw = written_once[static_cast<std::size_t>(own)];
    for (std::int32_t p = first_page[static_cast<std::size_t>(own)];
         p < first_page[static_cast<std::size_t>(own) + 1]; ++p) {
      trace.push_back(Touch{p, rmw ? TouchKind::kRmw : TouchKind::kProduce,
                            false});
    }
    emit_reads();
    written_once[static_cast<std::size_t>(own)] = true;
  }

  std::vector<std::vector<std::int64_t>> use_positions(num_pages);
  for (std::size_t t = 0; t < trace.size(); ++t) {
    use_positions[static_cast<std::size_t>(trace[t].page)].push_back(
        static_cast<std::int64_t>(t));
  }
  for (std::size_t b = 0; b < num_buffers; ++b) {
    if (table.buffers[b].is_sink) continue;
    for (std::int32_t p = first_page[b]; p < first_page[b + 1]; ++p) {
      const auto& uses = use_positions[static_cast<std::size_t>(p)];
      if (!uses.empty()) {
        trace[static_cast<std::size_t>(uses.back())].last_use = true;
      }
    }
  }

  std::vector<PageState> state(num_pages);
  std::vector<std::int32_t> resident;
  std::int64_t resident_bytes = 0;

  const auto next_use_after = [&](std::int32_t page, std::int64_t t) {
    const auto& uses = use_positions[static_cast<std::size_t>(page)];
    auto& cursor = state[static_cast<std::size_t>(page)].next_use_cursor;
    while (cursor < uses.size() && uses[cursor] <= t) ++cursor;
    return cursor < uses.size()
               ? uses[cursor]
               : std::numeric_limits<std::int64_t>::max();
  };
  const auto drop = [&](std::int32_t page) {
    resident.erase(std::find(resident.begin(), resident.end(), page));
    state[static_cast<std::size_t>(page)].resident = false;
    resident_bytes -= page_size(page);
  };
  const auto evict_one = [&](std::int32_t incoming, std::int64_t t) {
    std::int32_t victim = -1;
    std::int64_t best_metric = -1;
    for (const std::int32_t page : resident) {
      if (page == incoming) continue;
      const std::int64_t metric =
          options.policy == memsim::ReplacementPolicy::kBelady
              ? next_use_after(page, t)
              : t - state[static_cast<std::size_t>(page)].last_touch;
      // Ties locked to the lowest page id (the production tie-break).
      if (metric > best_metric ||
          (metric == best_metric && page < victim)) {
        best_metric = metric;
        victim = page;
      }
    }
    SERENITY_CHECK_GE(victim, 0) << "cache too small for a single page";
    PageState& vs = state[static_cast<std::size_t>(victim)];
    if (vs.dirty) {
      result.write_bytes += page_size(victim);
      vs.dirty = false;
      vs.has_offchip_copy = true;
    }
    drop(victim);
    ++result.evictions;
  };

  for (std::size_t t = 0; t < trace.size(); ++t) {
    const Touch touch = trace[t];
    PageState& ps = state[static_cast<std::size_t>(touch.page)];
    if (!ps.resident) {
      const std::int64_t bytes = page_size(touch.page);
      while (resident_bytes + bytes > options.onchip_bytes) {
        evict_one(touch.page, static_cast<std::int64_t>(t));
      }
      if (ps.produced && touch.kind != TouchKind::kProduce) {
        SERENITY_CHECK(ps.has_offchip_copy);
        result.read_bytes += bytes;
      }
      ps.resident = true;
      resident.push_back(touch.page);
      resident_bytes += bytes;
    }
    ps.last_touch = static_cast<std::int64_t>(t);
    if (touch.kind != TouchKind::kRead) {
      ps.produced = true;
      ps.dirty = true;
      ps.has_offchip_copy = false;
    }
    result.peak_resident_bytes =
        std::max(result.peak_resident_bytes, resident_bytes);
    if (touch.last_use) {
      ps.dirty = false;
      drop(touch.page);
    }
  }
  return result;
}

inline memsim::SimResult ReferenceSimulateHierarchy(
    const graph::Graph& graph, const sched::Schedule& schedule,
    const memsim::SimOptions& options) {
  return ReferenceSimulateHierarchy(
      graph, graph::BufferUseTable::Build(graph), schedule, options);
}

}  // namespace serenity::testing

#endif  // SERENITY_TESTS_TESTING_REFERENCE_IMPLS_H_
