// Two-level memory hierarchy simulator with clairvoyant (Belady) or LRU
// replacement, at configurable page granularity.
//
// The paper measures off-chip memory communication by replaying the chosen
// schedule against Belady's optimal replacement algorithm ("since we know
// the entire schedule a priori", §4.2, Fig. 11) on devices whose on-chip
// memory (32-256KB) is smaller than single activations of the larger cells
// — so residency must be sub-tensor. Activations are split into pages;
// executing a node touches every page of its input buffers, then every
// page of its output buffer. Producing a page costs nothing; re-fetching
// an evicted live page costs a read; evicting a dirty live page costs a
// write-back. Dead pages leave the cache for free. Initial input load and
// final output hand-off are excluded (schedule-independent), so a schedule
// whose peak footprint fits on-chip incurs exactly zero traffic — the
// paper's "SERENITY removes off-chip communication" cases.
//
// Implementation: trace construction threads every touch to the same
// page's next touch (classic Belady OPT linkage), and eviction scans the
// resident set once for the farthest next use (Belady) or the oldest touch
// (LRU) — at the paper's 32-256 KB with 4 KB pages that set holds at most
// 64 pages; see DESIGN.md "Arena planner and hierarchy simulator: plain
// scans". Eviction ties are deterministic: among equally evictable pages
// the lowest page id is evicted.
#ifndef SERENITY_MEMSIM_HIERARCHY_SIM_H_
#define SERENITY_MEMSIM_HIERARCHY_SIM_H_

#include <cstdint>

#include "graph/analysis.h"
#include "graph/graph.h"
#include "sched/schedule.h"

namespace serenity::memsim {

enum class ReplacementPolicy {
  kBelady,  // evict the resident page with the farthest next use
  kLru,     // evict the least recently used page (ablation baseline)
};

struct SimOptions {
  std::int64_t onchip_bytes = 256 * 1024;
  ReplacementPolicy policy = ReplacementPolicy::kBelady;
  // Transfer/residency granularity. 4KB models a typical DMA burst /
  // scratchpad line; the last page of a buffer may be partial.
  std::int64_t page_bytes = 4 * 1024;
};

struct SimResult {
  // False iff the capacity cannot hold even one page.
  bool feasible = true;
  std::int64_t read_bytes = 0;   // off-chip -> on-chip refills
  std::int64_t write_bytes = 0;  // dirty evictions written back
  std::int64_t evictions = 0;
  std::int64_t peak_resident_bytes = 0;

  std::int64_t TotalTraffic() const { return read_bytes + write_bytes; }
};

SimResult SimulateHierarchy(const graph::Graph& graph,
                            const graph::BufferUseTable& table,
                            const sched::Schedule& schedule,
                            const SimOptions& options);

SimResult SimulateHierarchy(const graph::Graph& graph,
                            const sched::Schedule& schedule,
                            const SimOptions& options);

}  // namespace serenity::memsim

#endif  // SERENITY_MEMSIM_HIERARCHY_SIM_H_
