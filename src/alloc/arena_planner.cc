#include "alloc/arena_planner.h"

#include <algorithm>
#include <limits>
#include <set>
#include <vector>

#include "util/logging.h"

namespace serenity::alloc {

namespace {

std::int64_t AlignUp(std::int64_t value, std::int64_t alignment) {
  return (value + alignment - 1) / alignment * alignment;
}

struct Lifetime {
  int first_step = -1;  // first write
  int last_step = -1;   // last use; schedule end for sinks
  bool used = false;
};

std::vector<Lifetime> ComputeLifetimes(const graph::Graph& graph,
                                       const graph::BufferUseTable& table,
                                       const sched::Schedule& schedule) {
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
      lifetimes[b].last_step = last;  // outputs persist to inference end
    }
  }
  return lifetimes;
}

// Lifetime-interval index for the gap scan (DESIGN.md "Interval-indexed
// arena planner"). All placements live in one persistent array kept sorted
// by arena offset (insertion is a binary search plus a contiguous shift of
// 24-byte PODs), so the per-buffer scan consumes conflicts in offset order
// directly — the seed rebuilt and re-sorted a `conflicts` vector for every
// buffer. On top of the array sit fixed-width blocks carrying the min
// first_step / max last_step of their entries: a block whose lifetime
// envelope misses the query is skipped whole, so a buffer touches only
// (blocks of) true lifetime overlaps.
class PlacementIndex {
 public:
  struct Entry {
    std::int64_t offset = 0;  // sort key
    std::int64_t end = 0;     // offset + size
    std::int32_t first_step = 0;
    std::int32_t last_step = 0;
  };

  static constexpr std::size_t kBlock = 64;

  void Insert(std::int64_t offset, std::int64_t end, int first_step,
              int last_step) {
    const Entry entry{offset, end, first_step, last_step};
    const auto pos = std::upper_bound(
        entries_.begin(), entries_.end(), entry,
        [](const Entry& a, const Entry& b) { return a.offset < b.offset; });
    const std::size_t at = static_cast<std::size_t>(pos - entries_.begin());
    entries_.insert(pos, entry);
    // Blocks from the insertion point on shifted by one entry; their
    // envelopes are rebuilt in the same pass the insertion's memmove
    // already paid for.
    const std::size_t num_blocks = (entries_.size() + kBlock - 1) / kBlock;
    block_min_first_.resize(num_blocks);
    block_max_last_.resize(num_blocks);
    for (std::size_t blk = at / kBlock; blk < num_blocks; ++blk) {
      std::int32_t min_first = std::numeric_limits<std::int32_t>::max();
      std::int32_t max_last = -1;
      const std::size_t hi = std::min(entries_.size(), (blk + 1) * kBlock);
      for (std::size_t i = blk * kBlock; i < hi; ++i) {
        min_first = std::min(min_first, entries_[i].first_step);
        max_last = std::max(max_last, entries_[i].last_step);
      }
      block_min_first_[blk] = min_first;
      block_max_last_[blk] = max_last;
    }
  }

  // Calls visit(entry) for every placement whose lifetime overlaps
  // [first_step, last_step], in ascending offset order. Stops early when
  // visit returns false.
  template <typename Visit>
  void Scan(int first_step, int last_step, const Visit& visit) const {
    const std::size_t num_blocks = block_min_first_.size();
    for (std::size_t blk = 0; blk < num_blocks; ++blk) {
      if (block_min_first_[blk] > last_step ||
          block_max_last_[blk] < first_step) {
        continue;  // no entry in this block overlaps the lifetime
      }
      const std::size_t hi = std::min(entries_.size(), (blk + 1) * kBlock);
      for (std::size_t i = blk * kBlock; i < hi; ++i) {
        const Entry& e = entries_[i];
        if (e.first_step > last_step || e.last_step < first_step) continue;
        if (!visit(e)) return;
      }
    }
  }

 private:
  std::vector<Entry> entries_;  // always sorted by offset
  std::vector<std::int32_t> block_min_first_;
  std::vector<std::int32_t> block_max_last_;
};

}  // namespace

ArenaPlan PlanArena(const graph::Graph& graph,
                    const graph::BufferUseTable& table,
                    const sched::Schedule& schedule,
                    std::int64_t alignment) {
  SERENITY_CHECK(sched::IsTopologicalOrder(graph, schedule));
  SERENITY_CHECK_GT(alignment, 0);
  const std::vector<Lifetime> lifetimes =
      ComputeLifetimes(graph, table, schedule);

  // Placement order: TFLite's greedy-by-size plans the largest tensors
  // first (ties broken by first use).
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

  ArenaPlan plan;
  plan.placements.reserve(order.size());
  PlacementIndex index;
  for (const graph::BufferId b : order) {
    const Lifetime& life = lifetimes[static_cast<std::size_t>(b)];
    const std::int64_t size =
        std::max<std::int64_t>(table.buffers[static_cast<std::size_t>(b)]
                                   .size_bytes,
                               1);
    // Stream the already placed buffers whose lifetimes overlap this one
    // in ascending offset order and take the lowest gap that fits.
    std::int64_t best_offset = -1;
    std::int64_t cursor = 0;
    index.Scan(life.first_step, life.last_step,
               [&](const PlacementIndex::Entry& e) {
                 if (e.offset > cursor) {
                   const std::int64_t start = AlignUp(cursor, alignment);
                   if (e.offset - start >= size) best_offset = start;
                 }
                 cursor = std::max(cursor, e.end);
                 // The lowest feasible gap decides; once one is found the
                 // rest of the stream cannot change the answer.
                 return best_offset < 0;
               });
    // Open-ended gap above the last conflict.
    if (best_offset < 0) best_offset = AlignUp(cursor, alignment);
    plan.placements.push_back(BufferPlacement{
        b, best_offset, size, life.first_step, life.last_step});
    index.Insert(best_offset, best_offset + size, life.first_step,
                 life.last_step);
    plan.arena_bytes = std::max(plan.arena_bytes, best_offset + size);
  }

  // Allocator-view footprint trace via a start/end event sweep: placements
  // enter a lazy max-heap of (top-of-arena, expiry) at first_step and are
  // popped once the step passes their last_step; the per-step highwater is
  // the surviving heap top. O(n log n + S), no per-element allocation —
  // the seed refilled every step of every placement's lifetime.
  plan.highwater_at_step.assign(schedule.size(), 0);
  struct HwEvent {
    std::int64_t top = 0;      // offset + size
    std::int32_t first_step = 0;
    std::int32_t last_step = 0;
  };
  std::vector<HwEvent> events;
  events.reserve(plan.placements.size());
  for (const BufferPlacement& p : plan.placements) {
    events.push_back(HwEvent{p.offset + p.size,
                             static_cast<std::int32_t>(p.first_step),
                             static_cast<std::int32_t>(p.last_step)});
  }
  std::sort(events.begin(), events.end(),
            [](const HwEvent& a, const HwEvent& b) {
              return a.first_step < b.first_step;
            });
  const auto by_top = [](const HwEvent& a, const HwEvent& b) {
    return a.top < b.top;  // max-heap on top-of-arena
  };
  std::vector<HwEvent> active;  // heap; expired entries removed lazily
  active.reserve(events.size());
  std::size_t next_event = 0;
  for (std::size_t step = 0; step < schedule.size(); ++step) {
    const std::int32_t now = static_cast<std::int32_t>(step);
    while (next_event < events.size() &&
           events[next_event].first_step == now) {
      active.push_back(events[next_event++]);
      std::push_heap(active.begin(), active.end(), by_top);
    }
    while (!active.empty() && active.front().last_step < now) {
      std::pop_heap(active.begin(), active.end(), by_top);
      active.pop_back();
    }
    if (!active.empty()) plan.highwater_at_step[step] = active.front().top;
  }
  return plan;
}

ArenaPlan PlanArena(const graph::Graph& graph,
                    const sched::Schedule& schedule,
                    std::int64_t alignment) {
  return PlanArena(graph, graph::BufferUseTable::Build(graph), schedule,
                   alignment);
}

std::int64_t EstimatePlannerBytes(const graph::BufferUseTable& table,
                                  const sched::Schedule& schedule) {
  const std::int64_t buffers =
      static_cast<std::int64_t>(table.buffers.size());
  const std::int64_t steps = static_cast<std::int64_t>(schedule.size());
  // Per buffer: a Lifetime, a BufferPlacement in the plan, an index entry
  // plus its block envelope, and an event in the highwater sweep (each
  // well under 64 bytes). Per step: one highwater entry plus the active
  // heap slot (<= 32 bytes). Headroom over the true footprint is fine —
  // this is an admission estimate, not an accounting ledger.
  return buffers * 64 + steps * 32;
}

util::StatusOr<ArenaPlan> PlanArenaGoverned(const graph::Graph& graph,
                                            const sched::Schedule& schedule,
                                            util::MemoryBudget* budget,
                                            std::int64_t alignment) {
  const graph::BufferUseTable table = graph::BufferUseTable::Build(graph);
  util::BudgetReservation reservation(budget);
  if (!reservation.EnsureAtLeast(EstimatePlannerBytes(table, schedule))) {
    return util::ResourceExhaustedError(
        "arena planner: memory budget exhausted");
  }
  // The reservation covers the planning run and unwinds at scope exit.
  return PlanArena(graph, table, schedule, alignment);
}

namespace {

// Exact pairwise check, kept for degenerate plans the sweep cannot model
// (a placement with first_step > last_step "overlaps" exactly the
// placements spanning both of its reversed endpoints under the symmetric
// interval test; no real plan contains one).
bool ValidatePlacementsPairwise(const ArenaPlan& plan) {
  for (std::size_t i = 0; i < plan.placements.size(); ++i) {
    const BufferPlacement& a = plan.placements[i];
    for (std::size_t j = i + 1; j < plan.placements.size(); ++j) {
      const BufferPlacement& b = plan.placements[j];
      const bool time_overlap =
          a.first_step <= b.last_step && b.first_step <= a.last_step;
      const bool space_overlap =
          a.offset < b.offset + b.size && b.offset < a.offset + a.size;
      if (time_overlap && space_overlap) return false;
    }
  }
  return true;
}

}  // namespace

bool ValidatePlacements(const ArenaPlan& plan, std::int64_t alignment) {
  SERENITY_CHECK_GT(alignment, 0);
  // Start/end sweep over steps: placements active at the same time must be
  // pairwise disjoint in address range, so keeping the active set ordered
  // by offset reduces the check to each insertion's two neighbours —
  // O(n log n) against the seed's pairwise O(n^2).
  struct Event {
    int step = 0;
    bool is_start = false;  // ends (at last_step + 1) sort before starts
    std::int32_t index = 0;
  };
  std::vector<Event> events;
  events.reserve(2 * plan.placements.size());
  bool inverted_lifetime = false;
  for (std::size_t i = 0; i < plan.placements.size(); ++i) {
    const BufferPlacement& p = plan.placements[i];
    if (p.offset < 0 || p.size <= 0) return false;
    if (p.offset % alignment != 0) return false;
    if (p.offset + p.size > plan.arena_bytes) return false;
    inverted_lifetime |= p.first_step > p.last_step;
    events.push_back(Event{p.first_step, true, static_cast<std::int32_t>(i)});
    events.push_back(
        Event{p.last_step + 1, false, static_cast<std::int32_t>(i)});
  }
  if (inverted_lifetime) return ValidatePlacementsPairwise(plan);
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.step != b.step) return a.step < b.step;
    return a.is_start < b.is_start;  // process removals first
  });

  std::set<std::pair<std::int64_t, std::int32_t>> active;  // (offset, index)
  for (const Event& e : events) {
    const BufferPlacement& p =
        plan.placements[static_cast<std::size_t>(e.index)];
    const auto key = std::make_pair(p.offset, e.index);
    if (!e.is_start) {
      active.erase(key);
      continue;
    }
    const auto next = active.lower_bound(key);
    if (next != active.end()) {
      const BufferPlacement& n =
          plan.placements[static_cast<std::size_t>(next->second)];
      if (p.offset + p.size > n.offset) return false;
    }
    if (next != active.begin()) {
      const BufferPlacement& prev =
          plan.placements[static_cast<std::size_t>(std::prev(next)->second)];
      if (prev.offset + prev.size > p.offset) return false;
    }
    active.insert(key);
  }
  return true;
}

std::vector<std::string> ValidatePlanForGraph(
    const ArenaPlan& plan, const graph::Graph& graph,
    const sched::Schedule& schedule, std::int64_t alignment) {
  SERENITY_CHECK_GT(alignment, 0);
  std::vector<std::string> problems;
  const auto complain = [&problems](std::string message) {
    problems.push_back(std::move(message));
  };

  // One placement per *used* buffer — no more, no less — with geometry
  // inside the arena. A spurious placement for a buffer no node touches
  // would silently inflate the arena (nothing ever writes it), so it is
  // rejected just like a missing one.
  std::vector<char> used(static_cast<std::size_t>(graph.num_buffers()), 0);
  for (const graph::Node& node : graph.nodes()) {
    used[static_cast<std::size_t>(node.buffer)] = 1;
  }
  std::vector<const BufferPlacement*> placement(
      static_cast<std::size_t>(graph.num_buffers()), nullptr);
  for (const BufferPlacement& p : plan.placements) {
    if (p.buffer < 0 || p.buffer >= graph.num_buffers()) {
      complain("placement references unknown buffer " +
               std::to_string(p.buffer));
      continue;
    }
    auto*& slot = placement[static_cast<std::size_t>(p.buffer)];
    if (slot != nullptr) {
      complain("buffer " + std::to_string(p.buffer) + " placed twice");
      continue;
    }
    slot = &p;
    if (!used[static_cast<std::size_t>(p.buffer)]) {
      complain("placement for buffer " + std::to_string(p.buffer) +
               ", which no node uses");
    }
    // Escape check phrased to stay overflow-free on crafted offsets near
    // INT64_MAX: with offset >= 0, "offset + size > arena" <=> this.
    if (p.offset < 0 || p.size <= 0 ||
        p.size > plan.arena_bytes - p.offset) {
      complain("placement of buffer " + std::to_string(p.buffer) +
               " escapes the arena");
    }
    if (p.offset % static_cast<std::int64_t>(sizeof(float)) != 0) {
      complain("placement offset of buffer " + std::to_string(p.buffer) +
               " is not float-aligned");
    } else if (p.offset % alignment != 0) {
      complain("placement offset of buffer " + std::to_string(p.buffer) +
               " is not " + std::to_string(alignment) + "-byte aligned");
    }
    if (p.size != graph.buffer(p.buffer).size_bytes) {
      complain("placement of buffer " + std::to_string(p.buffer) +
               " disagrees with its byte size");
    }
  }

  // Liveness: every producer and consumer step must fall inside its
  // buffer's planned lifetime — otherwise another placement may own those
  // bytes while the value is still needed.
  std::vector<int> step_of(static_cast<std::size_t>(graph.num_nodes()), -1);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const graph::NodeId id = schedule[i];
    if (id >= 0 && id < graph.num_nodes()) {
      step_of[static_cast<std::size_t>(id)] = static_cast<int>(i);
    }
  }
  const auto live_at = [&](graph::BufferId buffer, int step) {
    const BufferPlacement* p = placement[static_cast<std::size_t>(buffer)];
    return p != nullptr && p->first_step <= step && step <= p->last_step;
  };
  for (const graph::Node& node : graph.nodes()) {
    const BufferPlacement* own =
        placement[static_cast<std::size_t>(node.buffer)];
    if (own == nullptr) {
      complain("used buffer " + std::to_string(node.buffer) + " of '" +
               node.name + "' has no placement");
      continue;
    }
    const int step = step_of[static_cast<std::size_t>(node.id)];
    if (step < 0) {
      complain("'" + node.name + "' is missing from the schedule");
      continue;
    }
    if (!live_at(node.buffer, step)) {
      complain("'" + node.name + "' writes buffer " +
               std::to_string(node.buffer) +
               " outside its planned lifetime");
    }
    for (const graph::NodeId input : node.inputs) {
      if (!live_at(graph.node(input).buffer, step)) {
        complain("'" + node.name + "' reads buffer " +
                 std::to_string(graph.node(input).buffer) +
                 " outside its planned lifetime");
      }
    }
  }

  if (!ValidatePlacements(plan)) {
    complain("placements overlap in lifetime and address");
  }
  return problems;
}

}  // namespace serenity::alloc
