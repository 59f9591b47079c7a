#include "serve/plan_cache.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "sched/schedule.h"
#include "serialize/serialize.h"
#include "util/crc32.h"
#include "util/logging.h"

namespace serenity::serve {

namespace {

// The retained-footprint charge of one entry.
std::int64_t CachedPlanBytes(const CachedPlan& plan) {
  const auto& g = plan.result.scheduled_graph;
  std::int64_t bytes = static_cast<std::int64_t>(sizeof(CachedPlan));
  bytes += static_cast<std::int64_t>(g.num_nodes()) *
           static_cast<std::int64_t>(sizeof(graph::Node));
  bytes += static_cast<std::int64_t>(g.num_edges()) *
           static_cast<std::int64_t>(2 * sizeof(graph::NodeId));
  bytes += static_cast<std::int64_t>(plan.result.schedule.size() +
                                     plan.plan.schedule.size()) *
           static_cast<std::int64_t>(sizeof(graph::NodeId));
  bytes += static_cast<std::int64_t>(plan.plan.arena.placements.size()) *
           static_cast<std::int64_t>(sizeof(alloc::BufferPlacement));
  bytes += static_cast<std::int64_t>(plan.inputs.size() *
                                     sizeof(graph::NodeId));
  bytes += static_cast<std::int64_t>(
      plan.plan.arena.highwater_at_step.size() * sizeof(std::int64_t));
  for (const graph::Node& node : g.nodes()) {
    bytes += static_cast<std::int64_t>(node.name.size() +
                                       node.inputs.size() *
                                           sizeof(graph::NodeId));
  }
  return bytes;
}

std::vector<graph::NodeId> InputNodes(const graph::Graph& graph) {
  std::vector<graph::NodeId> inputs;
  for (const graph::Node& node : graph.nodes()) {
    if (node.kind == graph::OpKind::kInput) inputs.push_back(node.id);
  }
  return inputs;
}

}  // namespace

std::shared_ptr<const CachedPlan> PlanCache::Lookup(
    const graph::GraphHash& hash) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(hash);
  if (it == entries_.end()) {
    ++counters_.misses;
    return nullptr;
  }
  ++counters_.hits;
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  return it->second.plan;
}

std::shared_ptr<const CachedPlan> PlanCache::Insert(
    const graph::GraphHash& hash, core::PipelineResult result) {
  util::StatusOr<std::shared_ptr<const CachedPlan>> inserted =
      InsertGoverned(hash, std::move(result), nullptr);
  SERENITY_CHECK(inserted.ok());  // only a governed budget can refuse
  return std::move(inserted).value();
}

util::StatusOr<std::shared_ptr<const CachedPlan>> PlanCache::InsertGoverned(
    const graph::GraphHash& hash, core::PipelineResult result,
    util::MemoryBudget* budget) {
  SERENITY_CHECK(result.status.ok())
      << "only successful results are cacheable";
  auto plan = std::make_shared<CachedPlan>();
  plan->hash = hash;
  plan->result = std::move(result);
  util::StatusOr<serialize::ExecutionPlan> exec = serialize::MakePlanOr(
      plan->result.scheduled_graph, plan->result.schedule, budget);
  if (!exec.ok()) return exec.status();
  plan->plan = *std::move(exec);
  plan->quality = plan->result.quality;
  plan->inputs = InputNodes(plan->result.scheduled_graph);

  std::lock_guard<std::mutex> lock(mu_);
  // Price of degradation: how far this peak sits above the best complete
  // schedule known for the structure — the planning run's own best-known
  // peak, tightened by any previous entry for the same hash.
  std::int64_t best_known = plan->result.best_known_peak_bytes >= 0
                                ? plan->result.best_known_peak_bytes
                                : plan->result.peak_bytes;
  const auto prev = entries_.find(hash);
  if (prev != entries_.end()) {
    best_known = std::min(best_known, prev->second.plan->result.peak_bytes);
  }
  plan->peak_delta_bytes =
      std::max<std::int64_t>(0, plan->result.peak_bytes - best_known);
  plan->bytes = CachedPlanBytes(*plan);
  InsertLocked(plan);
  return std::shared_ptr<const CachedPlan>(std::move(plan));
}

void PlanCache::InsertLocked(std::shared_ptr<const CachedPlan> plan) {
  const graph::GraphHash hash = plan->hash;
  EraseLocked(hash);
  lru_.push_front(hash);
  bytes_in_use_ += plan->bytes;
  if (plan->quality != core::PlanQuality::kExact) ++degraded_entries_;
  entries_[hash] = Entry{std::move(plan), lru_.begin()};
  ++counters_.insertions;
  EvictToCapacityLocked();
}

void PlanCache::EraseLocked(const graph::GraphHash& hash) {
  const auto it = entries_.find(hash);
  if (it == entries_.end()) return;
  bytes_in_use_ -= it->second.plan->bytes;
  if (it->second.plan->quality != core::PlanQuality::kExact) {
    --degraded_entries_;
  }
  lru_.erase(it->second.lru_pos);
  entries_.erase(it);
}

void PlanCache::EvictToCapacityLocked() {
  while (bytes_in_use_ > capacity_bytes_ && entries_.size() > 1) {
    EraseLocked(lru_.back());
    ++counters_.evictions;
  }
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  PlanCacheStats s = counters_;
  s.bytes_in_use = bytes_in_use_;
  s.capacity_bytes = capacity_bytes_;
  s.entries = entries_.size();
  s.degraded_entries = degraded_entries_;
  return s;
}

// ------------------------------------------------------------- persistence
//
//   serenity-plan-cache v4 <num_entries>
//   entry <crc> <hash_hex> <quality> <peak_delta> <graph_bytes> <plan_bytes>
//   <graph_bytes raw bytes: serialize::ToText(scheduled_graph)>
//   <plan_bytes raw bytes: PlanToText(plan)>
//
// <crc> is the CRC-32 (8 hex digits) of the entry's raw bytes from
// <hash_hex> through the last byte of the plan text. The loader reads only
// the two payload sizes (to find the entry's end), checks the CRC of that
// span, and parses nothing else until it matches: a bit flip anywhere in
// the entry fails before any parser runs, and the graph parser's CHECKs
// guard programming errors only.

namespace {

bool IsHashHex(std::string_view s) {
  if (s.size() != 32) return false;
  for (const char c : s) {
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  }
  return true;
}

// Parses the last two space-separated decimal fields of `line` (the payload
// sizes); false unless both are plain digits that fit a size_t.
bool ParsePayloadSizes(std::string_view line, std::size_t* graph_bytes,
                       std::size_t* plan_bytes) {
  const std::size_t plan_at = line.rfind(' ');
  if (plan_at == std::string_view::npos || plan_at == 0) return false;
  const std::size_t graph_at = line.rfind(' ', plan_at - 1);
  if (graph_at == std::string_view::npos) return false;
  const auto parse = [](std::string_view field, std::size_t* out) {
    const char* end = field.data() + field.size();
    const auto [ptr, ec] = std::from_chars(field.data(), end, *out);
    return !field.empty() && ec == std::errc() && ptr == end;
  };
  return parse(line.substr(graph_at + 1, plan_at - graph_at - 1),
               graph_bytes) &&
         parse(line.substr(plan_at + 1), plan_bytes);
}

std::string CrcHex(std::string_view bytes) {
  char hex[16];
  std::snprintf(hex, sizeof(hex), "%08x", util::Crc32(bytes));
  return hex;
}

}  // namespace

util::Status PlanCache::SaveToFile(const std::string& path) const {
  std::vector<std::shared_ptr<const CachedPlan>> snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot.reserve(entries_.size());
    for (const graph::GraphHash& hash : lru_) {
      snapshot.push_back(entries_.at(hash).plan);
    }
  }
  // v4: one raw-span CRC per entry; the embedded plan texts carry their own
  // "serenity-plan v3" header (serialize::kPlanFormatVersion). Bump this
  // whenever either layout changes, so a loader never feeds an
  // old-generation entry to the new parser.
  std::string out =
      "serenity-plan-cache v4 " + std::to_string(snapshot.size()) + "\n";
  for (const auto& plan : snapshot) {
    const std::string graph_text =
        serialize::ToText(plan->result.scheduled_graph);
    const std::string plan_text = serialize::PlanToText(plan->plan);
    const std::string span =
        plan->hash.ToHex() + " " +
        std::to_string(static_cast<int>(plan->quality)) + " " +
        std::to_string(plan->peak_delta_bytes) + " " +
        std::to_string(graph_text.size()) + " " +
        std::to_string(plan_text.size()) + "\n" + graph_text + plan_text;
    out += "entry " + CrcHex(span) + " " + span;
  }
  return serialize::AtomicWriteFile(path, out);
}

util::StatusOr<CacheLoadReport> PlanCache::LoadFromFile(
    const std::string& path) {
  util::StatusOr<std::string> read = serialize::ReadFile(path);
  if (!read.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.load_errors;
    return read.status();
  }
  const std::string& text = *read;

  // Header: must parse fully before any graceful exit — a header that
  // cannot be read at all is corruption (or not our file), not staleness.
  std::size_t header_end = text.find('\n');
  {
    std::istringstream hs(
        text.substr(0, header_end == std::string::npos ? text.size()
                                                       : header_end));
    std::string magic, version;
    std::size_t num_entries = 0;
    hs >> magic >> version >> num_entries;
    if (hs.fail() || magic != "serenity-plan-cache" ||
        header_end == std::string::npos) {
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.load_errors;
      return util::DataLossError(
          "'" + path +
          "' is not a plan-cache file (or its header is truncated)");
    }
    if (version != "v4") {
      // A cache persisted by a different serializer generation is stale,
      // not fatal: skip the warm start, serve cold, and let the caller
      // re-persist in the current format. Failing here would wedge a
      // service upgrade on a file that only exists as an optimization.
      std::fprintf(stderr,
                   "plan cache '%s' has format %s (this build writes v4); "
                   "ignoring it and starting cold\n",
                   path.c_str(), version.c_str());
      CacheLoadReport report;
      report.stale_version = true;
      return report;
    }
  }

  CacheLoadReport report;
  std::vector<std::shared_ptr<const CachedPlan>> loaded;
  const std::string_view view(text);
  std::size_t pos = header_end + 1;
  while (pos < text.size()) {
    // Resynchronization point on damage: skip to the next entry record.
    // Payload lines never begin with "entry " (graph records are
    // "serenity-graph"/"node"/..., plan records "serenity-plan"/"plan"/
    // "order"/"place"/"crc"), so this lands on a real entry boundary.
    const auto quarantine = [&] {
      ++report.entries_quarantined;
      const std::size_t next = text.find("\nentry ", pos);
      pos = next == std::string::npos ? text.size() : next + 1;
    };

    // "entry <crc> " precedes the checksummed span.
    const std::size_t span_at = pos + 15;
    const std::size_t line_end = text.find('\n', pos);
    std::size_t graph_bytes = 0, plan_bytes = 0;
    if (text.compare(pos, 6, "entry ") != 0 ||
        line_end == std::string::npos || line_end <= span_at ||
        text[span_at - 1] != ' ' ||
        !ParsePayloadSizes(view.substr(span_at, line_end - span_at),
                           &graph_bytes, &plan_bytes)) {
      quarantine();
      continue;
    }
    const std::size_t payload_at = line_end + 1;
    if (graph_bytes > text.size() - payload_at ||
        plan_bytes > text.size() - payload_at - graph_bytes) {
      quarantine();
      continue;
    }
    const std::size_t entry_end = payload_at + graph_bytes + plan_bytes;
    if (text.compare(pos + 6, 8,
                     CrcHex(view.substr(span_at, entry_end - span_at))) !=
        0) {
      quarantine();
      continue;
    }

    // CRC verified: the bytes are exactly what SaveToFile wrote. The plan
    // parser returns Status; treat any failure defensively as quarantine
    // (it re-validates geometry against the parsed graph).
    std::istringstream ls(text.substr(span_at, line_end - span_at));
    std::string hash_hex;
    int quality_int = -1;
    std::int64_t peak_delta = -1;
    ls >> hash_hex >> quality_int >> peak_delta;
    if (ls.fail() || !IsHashHex(hash_hex) || quality_int < 0 ||
        quality_int > static_cast<int>(core::PlanQuality::kGreedy) ||
        peak_delta < 0) {
      quarantine();
      continue;
    }
    auto plan = std::make_shared<CachedPlan>();
    core::PipelineResult& r = plan->result;
    r.scheduled_graph =
        serialize::FromText(text.substr(payload_at, graph_bytes));
    util::StatusOr<serialize::ExecutionPlan> parsed = serialize::PlanFromText(
        text.substr(payload_at + graph_bytes, plan_bytes), r.scheduled_graph);
    if (!parsed.ok()) {
      quarantine();
      continue;
    }
    plan->hash = graph::GraphHashFromHex(hash_hex);
    plan->plan = std::move(parsed).value();
    r.schedule = plan->plan.schedule;
    // Computed as Pipeline::Run computes it, so it cannot disagree with the
    // plan.
    r.peak_bytes = sched::PeakFootprint(r.scheduled_graph, r.schedule);
    r.best_known_peak_bytes = r.peak_bytes - peak_delta;
    r.quality = static_cast<core::PlanQuality>(quality_int);
    plan->quality = r.quality;
    plan->peak_delta_bytes = peak_delta;
    plan->inputs = InputNodes(r.scheduled_graph);
    plan->bytes = CachedPlanBytes(*plan);
    loaded.push_back(std::move(plan));
    ++report.entries_loaded;
    pos = entry_end;
  }

  std::lock_guard<std::mutex> lock(mu_);
  // Re-insert in reverse-recency order so the saved most-recently-used
  // entry lands at the front of our LRU list again.
  for (auto it = loaded.rbegin(); it != loaded.rend(); ++it) {
    InsertLocked(std::move(*it));
  }
  counters_.entries_quarantined +=
      static_cast<std::uint64_t>(report.entries_quarantined);
  return report;
}

}  // namespace serenity::serve
