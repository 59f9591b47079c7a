#include "serve/plan_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "core/pipeline.h"
#include "graph/builder.h"
#include "graph/canonical_hash.h"
#include "models/zoo.h"
#include "sched/schedule.h"
#include "testing/fault_injection.h"

namespace serenity::serve {
namespace {

core::PipelineResult PlanCell(const std::string& group,
                              const std::string& name) {
  const graph::Graph g = models::FindBenchmarkCell(group, name).factory();
  core::PipelineResult result = core::Pipeline().Run(g);
  EXPECT_TRUE(result.status.ok());
  return result;
}

std::string ReadFile(const std::string& path) {
  util::StatusOr<std::string> bytes = serialize::ReadFile(path);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? *std::move(bytes) : std::string();
}

graph::GraphHash CellHash(const std::string& group,
                          const std::string& name) {
  return graph::CanonicalGraphHash(
      models::FindBenchmarkCell(group, name).factory());
}

TEST(PlanCache, MissThenHitReturnsTheInsertedPlan) {
  PlanCache cache;
  const graph::GraphHash hash = CellHash("SwiftNet HPD", "Cell C");
  EXPECT_EQ(cache.Lookup(hash), nullptr);

  core::PipelineResult result = PlanCell("SwiftNet HPD", "Cell C");
  const sched::Schedule schedule = result.schedule;
  const auto inserted = cache.Insert(hash, std::move(result));
  const auto hit = cache.Lookup(hash);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit.get(), inserted.get());
  EXPECT_EQ(hit->result.schedule, schedule);
  EXPECT_TRUE(alloc::ValidatePlacements(hit->plan.arena));

  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes_in_use, inserted->bytes);
}

TEST(PlanCache, CachedPlanMatchesAFreshPipelineRunBitForBit) {
  PlanCache cache;
  const graph::Graph g =
      models::FindBenchmarkCell("SwiftNet HPD", "Cell B").factory();
  const graph::GraphHash hash = graph::CanonicalGraphHash(g);
  cache.Insert(hash, core::Pipeline().Run(g));

  const core::PipelineResult fresh = core::Pipeline().Run(g);
  const auto hit = cache.Lookup(hash);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->result.schedule, fresh.schedule);
  EXPECT_EQ(hit->result.peak_bytes, fresh.peak_bytes);
  EXPECT_EQ(hit->result.states_expanded, fresh.states_expanded);
  EXPECT_EQ(serialize::PlanToText(hit->plan),
            serialize::PlanToText(serialize::MakePlan(fresh.scheduled_graph,
                                                      fresh.schedule)));
}

TEST(PlanCache, LruEvictionBoundedByBytes) {
  core::PipelineResult a = PlanCell("SwiftNet HPD", "Cell A");
  core::PipelineResult b = PlanCell("SwiftNet HPD", "Cell B");
  core::PipelineResult c = PlanCell("SwiftNet HPD", "Cell C");
  const graph::GraphHash ha = CellHash("SwiftNet HPD", "Cell A");
  const graph::GraphHash hb = CellHash("SwiftNet HPD", "Cell B");
  const graph::GraphHash hc = CellHash("SwiftNet HPD", "Cell C");

  // Budget for A plus either of B/C, but never all three: inserting C with
  // A freshly touched must evict exactly B.
  PlanCache probe;
  const std::int64_t a_bytes = probe.Insert(ha, a)->bytes;
  const std::int64_t b_bytes = probe.Insert(hb, b)->bytes;
  const std::int64_t c_bytes = probe.Insert(hc, c)->bytes;

  PlanCache cache(a_bytes + std::max(b_bytes, c_bytes));
  cache.Insert(ha, std::move(a));
  cache.Insert(hb, std::move(b));
  EXPECT_EQ(cache.stats().evictions, 0u);

  // Touch A so B is least recently used, then overflow with C.
  ASSERT_NE(cache.Lookup(ha), nullptr);
  cache.Insert(hc, std::move(c));
  EXPECT_EQ(cache.Lookup(hb), nullptr) << "LRU entry should be evicted";
  EXPECT_NE(cache.Lookup(ha), nullptr);
  EXPECT_NE(cache.Lookup(hc), nullptr);

  const PlanCacheStats stats = cache.stats();
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_LE(stats.bytes_in_use, stats.capacity_bytes);
}

TEST(PlanCache, SingleOversizedEntryIsRetained) {
  PlanCache cache(/*capacity_bytes=*/1);
  const graph::GraphHash hash = CellHash("SwiftNet HPD", "Cell C");
  cache.Insert(hash, PlanCell("SwiftNet HPD", "Cell C"));
  EXPECT_NE(cache.Lookup(hash), nullptr)
      << "the only entry must survive even when over budget";
}

TEST(PlanCache, ReinsertReplacesWithoutLeakingBytes) {
  PlanCache cache;
  const graph::GraphHash hash = CellHash("SwiftNet HPD", "Cell C");
  const auto first = cache.Insert(hash, PlanCell("SwiftNet HPD", "Cell C"));
  cache.Insert(hash, PlanCell("SwiftNet HPD", "Cell C"));
  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.insertions, 2u);
  EXPECT_EQ(stats.bytes_in_use, first->bytes);
}

TEST(PlanCache, EvictedEntryStaysAliveForHolders) {
  core::PipelineResult big = PlanCell("SwiftNet HPD", "Cell A");
  const graph::GraphHash ha = CellHash("SwiftNet HPD", "Cell A");
  PlanCache probe;
  const std::int64_t a_bytes = probe.Insert(ha, big)->bytes;

  PlanCache cache(a_bytes + a_bytes / 4);
  const auto held = cache.Insert(ha, std::move(big));
  cache.Insert(CellHash("SwiftNet HPD", "Cell B"),
               PlanCell("SwiftNet HPD", "Cell B"));
  EXPECT_EQ(cache.Lookup(ha), nullptr);
  // The snapshot we held across the eviction is still fully usable.
  EXPECT_TRUE(sched::IsTopologicalOrder(held->result.scheduled_graph,
                                        held->result.schedule));
}

TEST(PlanCache, PersistenceRoundTripsThroughPlanText) {
  PlanCache cache;
  // Cell A rewrites (aliasing buffers) — the harder persistence case.
  for (const char* name : {"Cell A", "Cell C"}) {
    cache.Insert(CellHash("SwiftNet HPD", name),
                 PlanCell("SwiftNet HPD", name));
  }
  const std::string path = ::testing::TempDir() + "/plan_cache.v1";
  ASSERT_TRUE(cache.SaveToFile(path).ok());

  PlanCache warm;
  const util::StatusOr<CacheLoadReport> report = warm.LoadFromFile(path);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().entries_loaded, 2);
  EXPECT_EQ(report.value().entries_quarantined, 0);

  // Re-saving the loaded cache writes the file byte for byte: the plan
  // text is serialized at save time from the parsed plan.
  const std::string resaved = ::testing::TempDir() + "/plan_cache_resaved.v1";
  ASSERT_TRUE(warm.SaveToFile(resaved).ok());
  EXPECT_EQ(ReadFile(resaved), ReadFile(path));
  std::remove(resaved.c_str());
  std::remove(path.c_str());

  for (const char* name : {"Cell A", "Cell C"}) {
    const auto original = cache.Lookup(CellHash("SwiftNet HPD", name));
    const auto loaded = warm.Lookup(CellHash("SwiftNet HPD", name));
    ASSERT_NE(loaded, nullptr) << name;
    EXPECT_EQ(serialize::PlanToText(loaded->plan),
              serialize::PlanToText(original->plan))
        << name;
    EXPECT_EQ(loaded->result.schedule, original->result.schedule);
    // Recomputed from the loaded schedule, as Pipeline::Run computes it.
    EXPECT_EQ(loaded->result.peak_bytes, original->result.peak_bytes);
    // The planning run's stats, like its timings, are not persisted.
    EXPECT_EQ(loaded->result.states_expanded, 0u);
    EXPECT_TRUE(loaded->result.segment_sizes.empty());
    EXPECT_EQ(loaded->result.rewrite_report.TotalPatterns(), 0);
    EXPECT_EQ(loaded->result.total_seconds, 0.0);
    EXPECT_TRUE(loaded->result.status.ok());
    EXPECT_TRUE(alloc::ValidatePlacements(loaded->plan.arena));
    EXPECT_EQ(loaded->plan.arena.highwater_at_step,
              original->plan.arena.highwater_at_step);
  }
  EXPECT_EQ(warm.stats().entries, 2u);
}

TEST(PlanCacheDeath, RejectsFailedResults) {
  PlanCache cache;
  core::PipelineResult failed;
  failed.status = util::DeadlineExceededError("did not converge");
  EXPECT_DEATH(cache.Insert(graph::GraphHash{1, 2}, std::move(failed)),
               "cacheable");
}

TEST(PlanCache, RejectsCorruptCacheFilesWithStatus) {
  const std::string path = ::testing::TempDir() + "/bogus_cache.v1";
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("not-a-cache v9 1\n", f);
  std::fclose(f);
  PlanCache cache;
  const util::StatusOr<CacheLoadReport> report = cache.LoadFromFile(path);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), util::StatusCode::kDataLoss);
  EXPECT_NE(report.status().message().find("not a plan-cache"),
            std::string::npos);
  EXPECT_EQ(cache.stats().load_errors, 1u);
  std::remove(path.c_str());
}

TEST(PlanCache, MissingCacheFileIsNotFound) {
  PlanCache cache;
  const util::StatusOr<CacheLoadReport> report =
      cache.LoadFromFile(::testing::TempDir() + "/no_such_cache.v1");
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), util::StatusCode::kNotFound);
  EXPECT_EQ(cache.stats().load_errors, 1u);
}

TEST(PlanCache, StaleFormatVersionLoadsNothingInsteadOfAborting) {
  // A cache persisted by a previous serializer generation is an
  // optimization gone stale, not a fatal error: the service must start
  // cold, not wedge on the file.
  PlanCache fresh;
  fresh.Insert(CellHash("SwiftNet HPD", "Cell C"),
               PlanCell("SwiftNet HPD", "Cell C"));
  const std::string path = ::testing::TempDir() + "/stale_cache";
  ASSERT_TRUE(fresh.SaveToFile(path).ok());
  const std::string current = ReadFile(path);
  ASSERT_EQ(current.rfind("serenity-plan-cache v4 1\n", 0), 0u);
  // v1, and v3 (metadata-canonical CRC, persisted run stats): the same
  // entry under an older header still loads as stale.
  for (const std::string& header :
       {std::string("serenity-plan-cache v1 1\n"),
        std::string("serenity-plan-cache v3 1\n")}) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs((header + current.substr(current.find('\n') + 1)).c_str(),
               f);
    std::fclose(f);
    PlanCache cache;
    const util::StatusOr<CacheLoadReport> report = cache.LoadFromFile(path);
    ASSERT_TRUE(report.ok()) << header << report.status().ToString();
    EXPECT_TRUE(report.value().stale_version) << header;
    EXPECT_EQ(report.value().entries_loaded, 0) << header;
    EXPECT_EQ(cache.stats().entries, 0u) << header;
  }
  std::remove(path.c_str());
}

TEST(PlanCache, BitFlipQuarantinesOneEntryNotTheWarmStart) {
  PlanCache cache;
  for (const char* name : {"Cell A", "Cell B", "Cell C"}) {
    cache.Insert(CellHash("SwiftNet HPD", name),
                 PlanCell("SwiftNet HPD", name));
  }
  const std::string path = ::testing::TempDir() + "/flipped_cache.v3";
  ASSERT_TRUE(cache.SaveToFile(path).ok());

  // Flip one bit ~60% into the file: inside some entry's payload or
  // metadata, past the header.
  const std::int64_t size = serenity::testing::FileSizeBytes(path);
  ASSERT_GT(size, 0);
  ASSERT_TRUE(serenity::testing::CorruptFileBit(
      path, static_cast<std::uint64_t>(size) * 8 * 6 / 10));

  PlanCache warm;
  const util::StatusOr<CacheLoadReport> report = warm.LoadFromFile(path);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().entries_quarantined, 1);
  EXPECT_EQ(report.value().entries_loaded, 2);
  EXPECT_EQ(warm.stats().entries_quarantined, 1u);
  EXPECT_EQ(warm.stats().entries, 2u);
  // Every surviving entry is fully validated and usable.
  int usable = 0;
  for (const char* name : {"Cell A", "Cell B", "Cell C"}) {
    const auto hit = warm.Lookup(CellHash("SwiftNet HPD", name));
    if (hit == nullptr) continue;
    EXPECT_TRUE(alloc::ValidatePlacements(hit->plan.arena)) << name;
    ++usable;
  }
  EXPECT_EQ(usable, 2);
  std::remove(path.c_str());
}

TEST(PlanCache, MetadataBitFlipQuarantinesItsEntry) {
  // The CRC covers the metadata line too: a flip that leaves a valid
  // quality tier behind (0 <-> 1) is caught by the checksum, not a parser.
  PlanCache cache;
  for (const char* name : {"Cell A", "Cell B", "Cell C"}) {
    cache.Insert(CellHash("SwiftNet HPD", name),
                 PlanCell("SwiftNet HPD", name));
  }
  const std::string path = ::testing::TempDir() + "/meta_flipped_cache";
  ASSERT_TRUE(cache.SaveToFile(path).ok());
  // MRU first: the first entry is Cell C. Its <quality> field follows
  // "entry ", the 8 crc digits and the 32 hash digits.
  const std::string saved = ReadFile(path);
  const std::size_t quality_at = saved.find("\nentry ") + 1 + 6 + 9 + 33;
  ASSERT_EQ(saved[quality_at], '0');
  ASSERT_TRUE(serenity::testing::CorruptFileBit(path, quality_at * 8));

  PlanCache warm;
  const util::StatusOr<CacheLoadReport> report = warm.LoadFromFile(path);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().entries_quarantined, 1);
  EXPECT_EQ(report.value().entries_loaded, 2);
  EXPECT_EQ(warm.Lookup(CellHash("SwiftNet HPD", "Cell C")), nullptr);
  EXPECT_NE(warm.Lookup(CellHash("SwiftNet HPD", "Cell A")), nullptr);
  EXPECT_NE(warm.Lookup(CellHash("SwiftNet HPD", "Cell B")), nullptr);
  std::remove(path.c_str());
}

TEST(PlanCache, TruncationCostsOnlyTheTornEntry) {
  PlanCache cache;
  for (const char* name : {"Cell A", "Cell B", "Cell C"}) {
    cache.Insert(CellHash("SwiftNet HPD", name),
                 PlanCell("SwiftNet HPD", name));
  }
  const std::string path = ::testing::TempDir() + "/torn_cache.v3";
  ASSERT_TRUE(cache.SaveToFile(path).ok());
  const std::int64_t size = serenity::testing::FileSizeBytes(path);
  ASSERT_GT(size, 0);
  // Tear the tail off mid-entry (a crash between write and rename cannot
  // produce this file thanks to AtomicWriteFile, but a disk that lies
  // about durability can).
  ASSERT_TRUE(serenity::testing::TruncateFile(
      path, static_cast<std::uint64_t>(size) * 7 / 10));

  PlanCache warm;
  const util::StatusOr<CacheLoadReport> report = warm.LoadFromFile(path);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GE(report.value().entries_loaded, 1);
  EXPECT_LE(report.value().entries_loaded, 2);
  EXPECT_GE(report.value().entries_quarantined, 1);
  std::remove(path.c_str());
}

TEST(PlanCache, DegradedEntryMetadataRoundTrips) {
  // A degraded plan persists its quality tier and peak delta, so a warm
  // restart still knows the entry is upgradeable.
  const graph::Graph g =
      models::FindBenchmarkCell("SwiftNet HPD", "Cell C").factory();
  core::PipelineOptions popts;
  popts.deadline_seconds = 0.0;  // expire immediately
  popts.degrade_on_deadline = true;
  core::PipelineResult degraded = core::Pipeline(popts).Run(g);
  ASSERT_TRUE(degraded.status.ok());
  ASSERT_EQ(degraded.degrade_reason, core::DegradeReason::kDeadline);
  ASSERT_NE(degraded.quality, core::PlanQuality::kExact);

  PlanCache cache;
  const graph::GraphHash hash = graph::CanonicalGraphHash(g);
  const auto inserted = cache.Insert(hash, std::move(degraded));
  EXPECT_EQ(cache.stats().degraded_entries, 1u);

  const std::string path = ::testing::TempDir() + "/degraded_cache.v3";
  ASSERT_TRUE(cache.SaveToFile(path).ok());
  PlanCache warm;
  ASSERT_TRUE(warm.LoadFromFile(path).ok());
  const auto loaded = warm.Lookup(hash);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->quality, inserted->quality);
  EXPECT_EQ(loaded->peak_delta_bytes, inserted->peak_delta_bytes);
  EXPECT_EQ(loaded->result.quality, inserted->quality);
  EXPECT_EQ(loaded->result.peak_bytes, inserted->result.peak_bytes);
  // The degrade reason describes the planning run and is not persisted.
  EXPECT_EQ(loaded->result.degrade_reason, core::DegradeReason::kNone);
  EXPECT_EQ(warm.stats().degraded_entries, 1u);
  const std::string resaved = path + ".resaved";
  ASSERT_TRUE(warm.SaveToFile(resaved).ok());
  EXPECT_EQ(ReadFile(resaved), ReadFile(path));
  std::remove(resaved.c_str());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace serenity::serve
