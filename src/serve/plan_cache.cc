#include "serve/plan_cache.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <utility>
#include <vector>

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
  bytes += static_cast<std::int64_t>(
      plan.plan.arena.highwater_at_step.size() * sizeof(std::int64_t));
  for (const graph::Node& node : g.nodes()) {
    bytes += static_cast<std::int64_t>(node.name.size() +
                                       node.inputs.size() *
                                           sizeof(graph::NodeId));
  }
  return bytes;
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
//   serenity-plan-cache v3 <num_entries>
//   entry <hash_hex> <graph_bytes> <plan_bytes> <crc> <peak_bytes>
//         <states_expanded> <quality> <peak_delta> <conv_pat> <dw_pat>
//         <relu_pushes> <nodes_before> <nodes_after> <num_segments>
//         <seg0> <seg1> ...
//   <graph_bytes raw bytes: serialize::ToText(scheduled_graph)>
//   <plan_bytes raw bytes: PlanToText(plan)>
//
// <crc> is the CRC-32 (8 hex digits) of the entry's canonical form: the
// entry line with the crc field removed, followed by both payloads. The
// loader re-serializes the parsed metadata to recompute it, so a bit flip
// anywhere in the entry — metadata or payload — fails verification before
// any payload parser runs. Verified payloads are then parsed by code whose
// CHECKs guard programming errors only (the integrity layer has already
// vouched for the bytes).

namespace {

// The checksummed canonical form of one entry's metadata line (everything
// after "entry ", minus the crc field), shared by writer and loader.
std::string EntryMetadataCanonical(const std::string& hash_hex,
                                   std::size_t graph_bytes,
                                   std::size_t plan_bytes,
                                   const core::PipelineResult& r,
                                   core::PlanQuality quality,
                                   std::int64_t peak_delta_bytes) {
  std::ostringstream os;
  os << hash_hex << " " << graph_bytes << " " << plan_bytes << " "
     << r.peak_bytes << " " << r.states_expanded << " "
     << static_cast<int>(quality) << " " << peak_delta_bytes << " "
     << r.rewrite_report.conv_patterns << " "
     << r.rewrite_report.depthwise_patterns << " "
     << r.rewrite_report.relu_pushes << " " << r.rewrite_report.nodes_before
     << " " << r.rewrite_report.nodes_after << " " << r.segment_sizes.size();
  for (const int size : r.segment_sizes) os << " " << size;
  return os.str();
}

std::uint32_t EntryCrc(const std::string& metadata_canonical,
                       const std::string& graph_text,
                       const std::string& plan_text) {
  std::string all;
  all.reserve(metadata_canonical.size() + 1 + graph_text.size() +
              plan_text.size());
  all += metadata_canonical;
  all += '\n';
  all += graph_text;
  all += plan_text;
  return util::Crc32(all);
}

bool IsHashHex(const std::string& s) {
  if (s.size() != 32) return false;
  for (const char c : s) {
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  }
  return true;
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
  std::ostringstream os;
  // v3: per-entry CRC field; the embedded plan texts carry the
  // "serenity-plan v3" header of serialize::kPlanFormatVersion. Bump in
  // lockstep with that format so a loader never feeds an old-generation
  // plan text to the new parser.
  os << "serenity-plan-cache v3 " << snapshot.size() << "\n";
  for (const auto& plan : snapshot) {
    const std::string graph_text =
        serialize::ToText(plan->result.scheduled_graph);
    const std::string plan_text = serialize::PlanToText(plan->plan);
    const std::string metadata = EntryMetadataCanonical(
        plan->hash.ToHex(), graph_text.size(), plan_text.size(),
        plan->result, plan->quality, plan->peak_delta_bytes);
    const std::uint32_t crc = EntryCrc(metadata, graph_text, plan_text);
    char crc_hex[16];
    std::snprintf(crc_hex, sizeof(crc_hex), "%08x", crc);
    // The crc field sits fourth (after the payload sizes) so a loader can
    // strip it without knowing the tail's segment count.
    std::istringstream meta_fields(metadata);
    std::string hash_hex, graph_size, plan_size;
    meta_fields >> hash_hex >> graph_size >> plan_size;
    std::string tail;
    std::getline(meta_fields, tail);  // leading space included
    os << "entry " << hash_hex << " " << graph_size << " " << plan_size
       << " " << crc_hex << tail << "\n"
       << graph_text << plan_text;
  }
  return serialize::AtomicWriteFile(path, os.str());
}

util::StatusOr<CacheLoadReport> PlanCache::LoadFromFile(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.load_errors;
    return util::NotFoundError("cannot open plan cache '" + path +
                               "' for reading");
  }
  std::string text;
  char buffer[1 << 15];
  std::size_t got;
  while ((got = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    text.append(buffer, got);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.load_errors;
    return util::UnavailableError("error reading plan cache '" + path +
                                  "'");
  }

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
    if (version != "v3") {
      // A cache persisted by a different serializer generation is stale,
      // not fatal: skip the warm start, serve cold, and let the caller
      // re-persist in the current format. Failing here would wedge a
      // service upgrade on a file that only exists as an optimization.
      std::fprintf(stderr,
                   "plan cache '%s' has format %s (this build writes v3); "
                   "ignoring it and starting cold\n",
                   path.c_str(), version.c_str());
      CacheLoadReport report;
      report.stale_version = true;
      return report;
    }
  }

  CacheLoadReport report;
  std::vector<std::shared_ptr<const CachedPlan>> loaded;
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

    if (text.compare(pos, 6, "entry ") != 0) {
      quarantine();
      continue;
    }
    const std::size_t line_end = text.find('\n', pos);
    if (line_end == std::string::npos) {
      quarantine();
      continue;
    }

    // Parse the metadata line.
    std::istringstream ls(text.substr(pos + 6, line_end - pos - 6));
    std::string hash_hex, crc_hex;
    std::size_t graph_bytes = 0, plan_bytes = 0, num_segments = 0;
    auto plan = std::make_shared<CachedPlan>();
    core::PipelineResult& r = plan->result;
    int quality_int = 0;
    std::int64_t peak_delta = 0;
    ls >> hash_hex >> graph_bytes >> plan_bytes >> crc_hex >> r.peak_bytes >>
        r.states_expanded >> quality_int >> peak_delta >>
        r.rewrite_report.conv_patterns >>
        r.rewrite_report.depthwise_patterns >> r.rewrite_report.relu_pushes >>
        r.rewrite_report.nodes_before >> r.rewrite_report.nodes_after >>
        num_segments;
    bool entry_ok = !ls.fail() && IsHashHex(hash_hex) &&
                    crc_hex.size() == 8 && quality_int >= 0 &&
                    quality_int <= static_cast<int>(
                                       core::PlanQuality::kGreedy) &&
                    peak_delta >= 0 && r.peak_bytes >= peak_delta &&
                    num_segments <= 1'000'000;
    if (entry_ok) {
      r.segment_sizes.resize(num_segments);
      for (std::size_t s = 0; s < num_segments && entry_ok; ++s) {
        ls >> r.segment_sizes[s];
        entry_ok = !ls.fail();
      }
    }
    // Payload bounds before touching the payloads.
    const std::size_t payload_at = line_end + 1;
    entry_ok = entry_ok && graph_bytes <= text.size() - payload_at &&
               plan_bytes <= text.size() - payload_at - graph_bytes;
    if (!entry_ok) {
      quarantine();
      continue;
    }
    const std::string graph_text = text.substr(payload_at, graph_bytes);
    const std::string plan_text =
        text.substr(payload_at + graph_bytes, plan_bytes);

    // Integrity gate: recompute the CRC over the canonical metadata and the
    // payloads. Only verified bytes reach the parsers below.
    r.quality = static_cast<core::PlanQuality>(quality_int);
    r.best_known_peak_bytes = r.peak_bytes - peak_delta;
    const std::string metadata =
        EntryMetadataCanonical(hash_hex, graph_bytes, plan_bytes, r,
                               r.quality, peak_delta);
    char expect_hex[16];
    std::snprintf(expect_hex, sizeof(expect_hex), "%08x",
                  EntryCrc(metadata, graph_text, plan_text));
    if (crc_hex != expect_hex) {
      quarantine();
      continue;
    }

    // CRC verified: the bytes are exactly what SaveToFile wrote, so the
    // graph parser's CHECKs are back to guarding programming errors. The
    // plan parser returns Status; treat any failure defensively as
    // quarantine (it re-validates geometry against the parsed graph).
    plan->hash = graph::GraphHashFromHex(hash_hex);
    r.scheduled_graph = serialize::FromText(graph_text);
    util::StatusOr<serialize::ExecutionPlan> parsed =
        serialize::PlanFromText(plan_text, r.scheduled_graph);
    if (!parsed.ok()) {
      quarantine();
      continue;
    }
    plan->plan = std::move(parsed).value();
    r.schedule = plan->plan.schedule;
    plan->quality = r.quality;
    plan->peak_delta_bytes = peak_delta;
    plan->bytes = CachedPlanBytes(*plan);
    loaded.push_back(std::move(plan));
    ++report.entries_loaded;
    pos = payload_at + graph_bytes + plan_bytes;
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
