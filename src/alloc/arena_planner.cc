#include "alloc/arena_planner.h"

#include <algorithm>
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
  std::vector<BufferPlacement> by_offset;  // plan.placements, by offset
  by_offset.reserve(order.size());
  for (const graph::BufferId b : order) {
    const Lifetime& life = lifetimes[static_cast<std::size_t>(b)];
    const std::int64_t size =
        std::max<std::int64_t>(table.buffers[static_cast<std::size_t>(b)]
                                   .size_bytes,
                               1);
    // Walk the already placed buffers whose lifetimes overlap this one in
    // ascending offset order and take the lowest gap that fits.
    std::int64_t best_offset = -1;
    std::int64_t cursor = 0;
    for (const BufferPlacement& e : by_offset) {
      if (e.first_step > life.last_step || e.last_step < life.first_step) {
        continue;
      }
      if (e.offset > cursor) {
        const std::int64_t start = AlignUp(cursor, alignment);
        if (e.offset - start >= size) {
          // The lowest feasible gap decides; the rest of the walk cannot
          // change the answer.
          best_offset = start;
          break;
        }
      }
      cursor = std::max(cursor, e.offset + e.size);
    }
    // Open-ended gap above the last conflict.
    if (best_offset < 0) best_offset = AlignUp(cursor, alignment);
    const BufferPlacement placement{b, best_offset, size, life.first_step,
                                    life.last_step};
    plan.placements.push_back(placement);
    const auto pos = std::upper_bound(
        by_offset.begin(), by_offset.end(), placement,
        [](const BufferPlacement& x, const BufferPlacement& y) {
          return x.offset < y.offset;
        });
    by_offset.insert(pos, placement);
    plan.arena_bytes = std::max(plan.arena_bytes, best_offset + size);
  }
  plan.highwater_at_step = HighwaterAtStep(plan.placements, schedule.size());
  return plan;
}

std::vector<std::int64_t> HighwaterAtStep(
    const std::vector<BufferPlacement>& placements, std::size_t num_steps) {
  std::vector<std::int64_t> highwater(num_steps, 0);
  for (const BufferPlacement& p : placements) {
    for (int step = p.first_step; step <= p.last_step; ++step) {
      auto& hw = highwater[static_cast<std::size_t>(step)];
      hw = std::max(hw, p.offset + p.size);
    }
  }
  return highwater;
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
  // Per buffer: a 12-byte Lifetime. Per used buffer: a 4-byte order slot
  // and two 32-byte BufferPlacements (the plan's and the offset-sorted
  // copy). Per step: one 8-byte highwater entry. Every step writes one
  // buffer, so used buffers never outnumber steps, and
  // 12 B + 68 min(B, S) + 8 S stays under the charge below. Headroom over the true footprint is fine —
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

bool ValidatePlacements(const ArenaPlan& plan, std::int64_t alignment) {
  SERENITY_CHECK_GT(alignment, 0);
  for (const BufferPlacement& p : plan.placements) {
    if (p.offset < 0 || p.size <= 0) return false;
    if (p.offset % alignment != 0) return false;
    if (p.offset + p.size > plan.arena_bytes) return false;
  }
  // Placements alive at a common step must not share a byte.
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
