// PlanCache: the amortization layer of the serve path.
//
// SERENITY's expensive memory-aware search runs once per *structural* graph;
// the resulting schedule + arena plan is then reused across millions of
// inferences. The cache maps CanonicalGraphHash (graph/canonical_hash.h) to
// an immutable CachedPlan holding the full PipelineResult plus its
// execution plan (serialize/plan.h), so a hit serves in O(hash + lookup)
// and hands the caller the exact artifact an edge runtime consumes. The
// plan's text form is not kept: SaveToFile serializes it when it writes,
// and callers that want the text call serialize::PlanToText themselves.
//
// Eviction is LRU bounded by a byte budget: every entry is charged its
// retained footprint (graph nodes and names, both schedules, placements,
// the arena high-water trace) and least-recently-served entries are
// dropped until the budget holds.
// Lookups and inserts are thread-safe; returned plans are shared_ptr<const>
// snapshots, so an entry evicted mid-use stays alive for its holders.
//
// Persistence ("warm restart") keeps the plan and nothing else. SaveToFile
// writes every entry as
//   entry <crc> <hash_hex> <quality> <peak_delta> <graph_bytes> <plan_bytes>
// followed by the serialized scheduled graph and plan texts, through the
// atomic write-temp-then-rename path (serialize::AtomicWriteFile) so a
// crash mid-save never tears the file. <crc> is one CRC-32 over the entry's
// raw bytes after it; LoadFromFile verifies it *before* parsing,
// quarantines-and-skips entries that fail (resynchronizing at the next
// "entry " record), and reports how many were loaded vs quarantined — a
// torn write or bit flip costs one entry, not the warm start. The quality
// and peak delta are kept so a degraded entry stays upgradeable; the peak
// is recomputed from the schedule. What describes the planning run (state
// counts, rewrite counts, segment sizes, timings, the degrade reason) is
// not persisted and loads as zero/empty/kNone.
#ifndef SERENITY_SERVE_PLAN_CACHE_H_
#define SERENITY_SERVE_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/pipeline.h"
#include "graph/canonical_hash.h"
#include "serialize/plan.h"
#include "util/memory_budget.h"
#include "util/status.h"

namespace serenity::serve {

struct CachedPlan {
  graph::GraphHash hash;
  core::PipelineResult result;  // status is always OK for cached entries
  serialize::ExecutionPlan plan;  // arena plan over result.scheduled_graph
  // The scheduled graph's kInput nodes in ascending id: the order an infer
  // request carries its input tensors in.
  std::vector<graph::NodeId> inputs;
  std::int64_t bytes = 0;       // retained-footprint charge for eviction
  // Which rung of the degradation ladder produced this plan. Anything below
  // kExact marks the entry upgradeable: SchedulerService re-plans it in the
  // background and replaces it in place.
  core::PlanQuality quality = core::PlanQuality::kExact;
  // How far this plan's peak sits above the best peak known when it was
  // inserted (0 for exact plans) — the price paid for degrading.
  std::int64_t peak_delta_bytes = 0;
};

struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::int64_t bytes_in_use = 0;
  std::int64_t capacity_bytes = 0;
  std::uint64_t entries = 0;
  // Cumulative persistence-failure counters: files that failed to load at
  // all, and per-entry quarantines (checksum/parse failures skipped during
  // otherwise-successful loads).
  std::uint64_t load_errors = 0;
  std::uint64_t entries_quarantined = 0;
  // Entries currently in the cache whose quality is below kExact.
  std::uint64_t degraded_entries = 0;
};

// What LoadFromFile accomplished (returned even when some entries were
// damaged — partial warm starts are the point of per-entry checksums).
struct CacheLoadReport {
  int entries_loaded = 0;
  int entries_quarantined = 0;
  // True when the file was a valid cache of an older format version and was
  // skipped wholesale (stale, not corrupt).
  bool stale_version = false;
};

class PlanCache {
 public:
  explicit PlanCache(std::int64_t capacity_bytes = 256ll << 20)
      : capacity_bytes_(capacity_bytes) {}

  // Returns the cached plan and bumps it most-recently-used, or nullptr.
  std::shared_ptr<const CachedPlan> Lookup(const graph::GraphHash& hash);

  // Builds a CachedPlan from a successful pipeline run (plans its arena
  // internally), inserts it and returns it. Replaces any existing entry
  // for `hash`; evicts LRU entries beyond the byte budget. Degradation
  // metadata (quality, peak delta) is carried over from `result`. Dies if
  // `result.status` is not OK — failures are not cacheable.
  std::shared_ptr<const CachedPlan> Insert(const graph::GraphHash& hash,
                                           core::PipelineResult result);

  // Insert with the arena-planning pass charged against `budget`
  // (serialize::MakePlanOr): a denied charge returns kResourceExhausted and
  // caches nothing — the serving layer sheds the request with a retry hint
  // instead of allocating past the governor. Null budget == Insert.
  util::StatusOr<std::shared_ptr<const CachedPlan>> InsertGoverned(
      const graph::GraphHash& hash, core::PipelineResult result,
      util::MemoryBudget* budget);

  PlanCacheStats stats() const;

  // Persists all entries, most-recently-used first (so a truncated LoadFrom
  // of a smaller cache keeps the hottest plans), atomically: the file is
  // staged as `path`.tmp and renamed over `path` only once fully written
  // and synced. Returns a non-OK Status on I/O failure (the old file, if
  // any, is untouched).
  util::Status SaveToFile(const std::string& path) const;

  // Loads entries from `path` into this cache (on top of whatever it
  // holds); counts as insertions, not hits. Entries whose checksum or
  // payload fails verification are quarantined (skipped, counted, load
  // continues at the next entry record). Returns a report on success; a
  // non-OK Status only when the file itself is unreadable or not a plan
  // cache at all. Never aborts on damaged input.
  util::StatusOr<CacheLoadReport> LoadFromFile(const std::string& path);

 private:
  struct Entry {
    std::shared_ptr<const CachedPlan> plan;
    std::list<graph::GraphHash>::iterator lru_pos;
  };

  // All private helpers assume mu_ is held.
  void InsertLocked(std::shared_ptr<const CachedPlan> plan);
  void EvictToCapacityLocked();
  void EraseLocked(const graph::GraphHash& hash);

  mutable std::mutex mu_;
  std::int64_t capacity_bytes_;
  std::int64_t bytes_in_use_ = 0;
  std::uint64_t degraded_entries_ = 0;
  std::list<graph::GraphHash> lru_;  // front = most recently used
  std::unordered_map<graph::GraphHash, Entry, graph::GraphHashHasher>
      entries_;
  PlanCacheStats counters_;  // cumulative counters only
};

}  // namespace serenity::serve

#endif  // SERENITY_SERVE_PLAN_CACHE_H_
