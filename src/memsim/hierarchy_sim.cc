#include "memsim/hierarchy_sim.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "util/logging.h"

namespace serenity::memsim {

namespace {

constexpr std::int64_t kNoNextUse = std::numeric_limits<std::int64_t>::max();

enum class TouchKind : std::uint8_t {
  kRead,     // consume existing content
  kProduce,  // overwrite: no old content needed
  kRmw,      // read-modify-write (accumulators, slice writers)
};

// One trace element covers a whole buffer's page range — a *run* — instead
// of one element per page: a kernel always touches every page of a buffer
// back to back, so a run plus arithmetic reconstructs the per-page touch
// sequence exactly (position of page p in a run = base + p - first_page).
// This shrinks the trace ~page_count-fold on large-buffer cells while the
// replay below still walks page-granular touches, keeping every counter
// bit-identical to the per-touch trace.
struct TouchRun {
  std::int32_t first_page = 0;
  std::int32_t page_count = 0;
  TouchKind kind = TouchKind::kRead;
  bool last_use = false;  // final run of a non-sink buffer: pages die here
  std::int64_t base = 0;  // page-granular position of the run's first touch
  std::int64_t next_base = kNoNextUse;  // base of this buffer's next run
};

struct PageState {
  bool produced = false;  // holds defined content (on- or off-chip)
  bool dirty = false;
  bool has_offchip_copy = false;
  std::int32_t slot = -1;            // index into `resident`, -1 if absent
  std::int64_t last_touch = -1;      // LRU recency
  std::int64_t next_use = kNoNextUse;  // Belady distance (set per touch)
};

}  // namespace

SimResult SimulateHierarchy(const graph::Graph& graph,
                            const graph::BufferUseTable& table,
                            const sched::Schedule& schedule,
                            const SimOptions& options) {
  SERENITY_CHECK(sched::IsTopologicalOrder(graph, schedule));
  SERENITY_CHECK_GT(options.onchip_bytes, 0);
  SERENITY_CHECK_GT(options.page_bytes, 0);

  SimResult result;
  if (options.onchip_bytes < options.page_bytes) {
    result.feasible = false;
    return result;
  }

  // --- Page table ---
  // Pages are contiguous per buffer; the owning buffer, byte size (the last
  // page of a buffer may be partial) and sink-ness of every page are
  // precomputed once, so the replay never binary-searches `first_page`.
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
  std::vector<std::int64_t> page_bytes_of(num_pages, 0);
  std::vector<std::uint8_t> page_is_sink(num_pages, 0);
  for (std::size_t b = 0; b < num_buffers; ++b) {
    for (std::int32_t p = first_page[b]; p < first_page[b + 1]; ++p) {
      const std::int64_t offset = static_cast<std::int64_t>(
                                      p - first_page[b]) *
                                  options.page_bytes;
      page_bytes_of[static_cast<std::size_t>(p)] = std::min(
          options.page_bytes, table.buffers[b].size_bytes - offset);
      page_is_sink[static_cast<std::size_t>(p)] = table.buffers[b].is_sink;
    }
  }

  // --- Access trace ---
  // A kernel consumes its inputs throughout output production, so input
  // pages are touched before AND after the output pages: under pressure,
  // Belady may stream input pages out and back (costing reads), but they
  // cannot silently die before the output exists — preserving the
  // working-set semantics the footprint model is built on. Emitted as
  // per-buffer page runs; `position` counts page-granular touches so run
  // bases equal the positions the per-touch trace would have assigned.
  std::vector<bool> written_once(num_buffers, false);
  std::vector<TouchRun> trace;
  std::int64_t position = 0;
  const auto emit_run = [&](graph::BufferId b, TouchKind kind) {
    const std::size_t bi = static_cast<std::size_t>(b);
    const std::int32_t pages = first_page[bi + 1] - first_page[bi];
    trace.push_back(TouchRun{first_page[bi], pages, kind, false, position,
                             kNoNextUse});
    position += pages;
  };
  for (const graph::NodeId id : schedule) {
    const std::size_t uid = static_cast<std::size_t>(id);
    const graph::BufferId own = graph.node(id).buffer;
    const auto& reads = table.read_buffers[uid];
    const auto emit_reads = [&] {
      for (const graph::BufferId b : reads) {
        if (b == own) continue;  // folded into the write touches
        emit_run(b, TouchKind::kRead);
      }
    };
    emit_reads();
    // Accumulators and slice writers must preserve prior content
    // (read-modify-write); a buffer's first writer overwrites cleanly.
    emit_run(own, written_once[static_cast<std::size_t>(own)]
                      ? TouchKind::kRmw
                      : TouchKind::kProduce);
    emit_reads();
    written_once[static_cast<std::size_t>(own)] = true;
  }

  // Belady OPT linkage at run granularity: one backward pass threads every
  // run to the same buffer's next run. A run always covers the buffer's
  // full page range, so page p's next use is next_base + (p - first_page) —
  // exactly the position the per-touch linkage produced. The same pass
  // marks each non-sink buffer's final run as its pages' death (liveness
  // ends at the last touching node, as in the footprint evaluator). Keyed
  // by first_page, which identifies the buffer.
  std::vector<std::int64_t> next_seen(num_pages + 1, kNoNextUse);
  for (std::size_t i = trace.size(); i-- > 0;) {
    TouchRun& run = trace[i];
    const std::size_t key = static_cast<std::size_t>(run.first_page);
    run.next_base = next_seen[key];
    if (next_seen[key] == kNoNextUse &&
        !page_is_sink[static_cast<std::size_t>(run.first_page)]) {
      run.last_use = true;
    }
    next_seen[key] = run.base;
  }

  // --- Replay ---
  std::vector<PageState> state(num_pages);
  std::vector<std::int32_t> resident;
  std::int64_t resident_bytes = 0;

  const auto drop = [&](std::int32_t page) {
    PageState& ps = state[static_cast<std::size_t>(page)];
    const std::int32_t back = resident.back();
    resident[static_cast<std::size_t>(ps.slot)] = back;
    state[static_cast<std::size_t>(back)].slot = ps.slot;
    resident.pop_back();
    ps.slot = -1;
    resident_bytes -= page_bytes_of[static_cast<std::size_t>(page)];
  };
  // One pass over the resident set: the victim has the largest metric —
  // next use for Belady, negated recency for LRU — ties to the lowest page
  // id.
  const bool belady = options.policy == ReplacementPolicy::kBelady;
  const auto evict_one = [&] {
    SERENITY_CHECK(!resident.empty()) << "cache too small for a single page";
    std::int32_t victim = -1;
    std::int64_t victim_metric = 0;
    for (const std::int32_t page : resident) {
      const PageState& ps = state[static_cast<std::size_t>(page)];
      const std::int64_t metric = belady ? ps.next_use : -ps.last_touch;
      if (victim < 0 || metric > victim_metric ||
          (metric == victim_metric && page < victim)) {
        victim = page;
        victim_metric = metric;
      }
    }
    PageState& vs = state[static_cast<std::size_t>(victim)];
    if (vs.dirty) {
      result.write_bytes += page_bytes_of[static_cast<std::size_t>(victim)];
      vs.dirty = false;
      vs.has_offchip_copy = true;
    }
    drop(victim);
    ++result.evictions;
  };

  // The replay expands each run back into its page-granular touches, so
  // every decision (eviction order, traffic, peaks) replays the per-touch
  // trace exactly; only the trace representation shrank.
  for (const TouchRun& run : trace) {
    for (std::int32_t offset = 0; offset < run.page_count; ++offset) {
      const std::int32_t page = run.first_page + offset;
      PageState& ps = state[static_cast<std::size_t>(page)];
      if (ps.slot < 0) {
        const std::int64_t bytes =
            page_bytes_of[static_cast<std::size_t>(page)];
        while (resident_bytes + bytes > options.onchip_bytes) {
          evict_one();
        }
        // Fetch old content for reads and read-modify-writes.
        if (ps.produced && run.kind != TouchKind::kProduce) {
          SERENITY_CHECK(ps.has_offchip_copy);
          result.read_bytes += bytes;
        }
        ps.slot = static_cast<std::int32_t>(resident.size());
        resident.push_back(page);
        resident_bytes += bytes;
      }
      ps.last_touch = run.base + offset;
      ps.next_use =
          run.next_base == kNoNextUse ? kNoNextUse : run.next_base + offset;
      if (run.kind != TouchKind::kRead) {
        ps.produced = true;
        ps.dirty = true;
        ps.has_offchip_copy = false;
      }
      result.peak_resident_bytes =
          std::max(result.peak_resident_bytes, resident_bytes);
      if (run.last_use) {
        ps.dirty = false;  // dead data is never read again: no write-back
        drop(page);
      }
    }
  }
  return result;
}

SimResult SimulateHierarchy(const graph::Graph& graph,
                            const sched::Schedule& schedule,
                            const SimOptions& options) {
  return SimulateHierarchy(graph, graph::BufferUseTable::Build(graph),
                           schedule, options);
}

}  // namespace serenity::memsim
