// Exhaustive minimum-peak-footprint scheduler, the test oracle of the
// dynamic-programming scheduler.
//
// Enumerates every topological order (the paper's S_T space, §2.3) and keeps
// the one with the smallest peak footprint. Complexity O(|V|!): usable only
// as a test oracle for the dynamic-programming scheduler's optimality proof
// obligations (paper Appendix C) on graphs of ~10 nodes and below.
#ifndef SERENITY_TESTS_TESTING_BRUTE_FORCE_H_
#define SERENITY_TESTS_TESTING_BRUTE_FORCE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/analysis.h"
#include "graph/graph.h"
#include "sched/schedule.h"
#include "util/logging.h"

namespace serenity::testing {

struct BruteForceResult {
  sched::Schedule schedule;
  std::int64_t peak_bytes = 0;
  std::uint64_t orders_enumerated = 0;
};

namespace brute_force_internal {

// Depth-first enumeration carrying the incremental footprint state, so each
// complete order costs O(|V|) rather than a fresh O(|V|+|E|) evaluation.
class Enumerator {
 public:
  Enumerator(const graph::Graph& graph, std::uint64_t max_orders)
      : graph_(graph),
        table_(graph::BufferUseTable::Build(graph)),
        max_orders_(max_orders) {
    indegree_.resize(static_cast<std::size_t>(graph.num_nodes()));
    for (const graph::Node& node : graph.nodes()) {
      indegree_[static_cast<std::size_t>(node.id)] =
          static_cast<int>(node.inputs.size());
      if (node.inputs.empty()) ready_.push_back(node.id);
    }
    remaining_uses_.resize(table_.buffers.size());
    for (std::size_t b = 0; b < table_.buffers.size(); ++b) {
      remaining_uses_[b] = static_cast<int>(
          table_.buffers[b].writers.size() + table_.buffers[b].readers.size());
    }
    allocated_.assign(table_.buffers.size(), false);
  }

  BruteForceResult Run() {
    Recurse(/*footprint=*/0, /*peak=*/0);
    SERENITY_CHECK_GT(result_.orders_enumerated, 0u)
        << "graph has no topological order (cycle?)";
    return result_;
  }

 private:
  // Uses this node spends on buffer b (1 as writer, +1 as reader).
  int UsesOf(graph::NodeId id, graph::BufferId b) const {
    int uses = (graph_.node(id).buffer == b) ? 1 : 0;
    const auto& reads = table_.read_buffers[static_cast<std::size_t>(id)];
    if (std::find(reads.begin(), reads.end(), b) != reads.end()) ++uses;
    return uses;
  }

  void Recurse(std::int64_t footprint, std::int64_t peak) {
    if (current_.size() == static_cast<std::size_t>(graph_.num_nodes())) {
      ++result_.orders_enumerated;
      SERENITY_CHECK_LE(result_.orders_enumerated, max_orders_)
          << "brute-force oracle called on a graph with too many orders";
      if (result_.schedule.empty() || peak < result_.peak_bytes) {
        result_.schedule = current_;
        result_.peak_bytes = peak;
      }
      return;
    }
    // Iterate over a snapshot: ready_ mutates during recursion.
    const std::vector<graph::NodeId> candidates = ready_;
    for (const graph::NodeId id : candidates) {
      const std::size_t uid = static_cast<std::size_t>(id);
      const graph::BufferId own = graph_.node(id).buffer;
      const std::size_t uown = static_cast<std::size_t>(own);

      // --- apply ---
      const bool alloc = !allocated_[uown];
      std::int64_t new_footprint =
          footprint + (alloc ? table_.buffers[uown].size_bytes : 0);
      const std::int64_t step_peak = new_footprint;
      if (alloc) allocated_[uown] = true;
      std::vector<graph::BufferId> freed;
      for (const graph::BufferId b : table_.touched_buffers[uid]) {
        const std::size_t ub = static_cast<std::size_t>(b);
        remaining_uses_[ub] -= UsesOf(id, b);
        if (remaining_uses_[ub] == 0 && !table_.buffers[ub].is_sink) {
          new_footprint -= table_.buffers[ub].size_bytes;
          freed.push_back(b);
        }
      }
      const std::size_t ready_pos = static_cast<std::size_t>(
          std::find(ready_.begin(), ready_.end(), id) - ready_.begin());
      ready_[ready_pos] = ready_.back();
      ready_.pop_back();
      std::vector<graph::NodeId> newly_ready;
      for (const graph::NodeId consumer : graph_.consumers(id)) {
        if (--indegree_[static_cast<std::size_t>(consumer)] == 0) {
          newly_ready.push_back(consumer);
          ready_.push_back(consumer);
        }
      }
      current_.push_back(id);

      Recurse(new_footprint, std::max(peak, step_peak));

      // --- undo ---
      current_.pop_back();
      for (const graph::NodeId consumer : graph_.consumers(id)) {
        ++indegree_[static_cast<std::size_t>(consumer)];
      }
      for (const graph::NodeId nr : newly_ready) {
        ready_.erase(std::find(ready_.begin(), ready_.end(), nr));
      }
      ready_.push_back(id);
      for (const graph::BufferId b : table_.touched_buffers[uid]) {
        remaining_uses_[static_cast<std::size_t>(b)] += UsesOf(id, b);
      }
      if (alloc) allocated_[uown] = false;
    }
  }

  const graph::Graph& graph_;
  const graph::BufferUseTable table_;
  const std::uint64_t max_orders_;
  std::vector<int> indegree_;
  std::vector<graph::NodeId> ready_;
  std::vector<int> remaining_uses_;
  std::vector<bool> allocated_;
  sched::Schedule current_;
  BruteForceResult result_;
};

}  // namespace brute_force_internal

// `max_orders` aborts the run (via SERENITY_CHECK) if the space is larger
// than expected — a guard against accidentally calling the oracle on a big
// graph rather than a soft limit.
inline BruteForceResult BruteForceOptimalSchedule(
    const graph::Graph& graph, std::uint64_t max_orders = 50'000'000) {
  return brute_force_internal::Enumerator(graph, max_orders).Run();
}

}  // namespace serenity::testing

#endif  // SERENITY_TESTS_TESTING_BRUTE_FORCE_H_
