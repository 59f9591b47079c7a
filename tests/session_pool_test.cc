// SessionPool: bounded per-plan session pools, and the activation blocks
// their leases run in.
//
// Includes the zero-heap-allocation proof for the steady-state serve hot
// path: alloc_counter.h replaces global operator new, so this file must be
// the only TU of this binary that includes it.
#include "serve/session_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "graph/canonical_hash.h"
#include "models/darts.h"
#include "models/random_cell.h"
#include "models/randwire.h"
#include "models/swiftnet.h"
#include "models/zoo.h"
#include "runtime/executor.h"
#include "runtime/weights.h"
#include "serialize/plan.h"
#include "serve/scheduler_service.h"
#include "testing/alloc_counter.h"
#include "testing/fault_injection.h"
#include "testing/random_graphs.h"
#include "testing/runtime_inputs.h"
#include "testing/sink_compare.h"
#include "util/cancel_token.h"
#include "util/memory_budget.h"
#include "util/rng.h"

namespace serenity::serve {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::shared_ptr<const CachedPlan> PlanFor(SchedulerService& service,
                                          const graph::Graph& graph) {
  const ServeResult result = service.Schedule(graph);
  EXPECT_NE(result.plan, nullptr) << result.status.ToString();
  return result.plan;
}

// Bytes of the activation block a plan needs: its arena and its fused-cell
// scratch.
std::int64_t BlockBytesOf(const CachedPlan& plan) {
  return static_cast<std::int64_t>(
      runtime::ArenaExecutor::BlockFloats(plan.result.scheduled_graph,
                                          plan.plan) *
      sizeof(float));
}

// Bytes of one copy of a plan's weights.
std::int64_t WeightBytesOf(const CachedPlan& plan) {
  return runtime::GraphWeightBytes(
      *runtime::MaterializeGraphWeights(plan.result.scheduled_graph));
}

TEST(SessionPool, CheckoutRunsRealInferenceAndReturnsForReuse) {
  SchedulerService service;
  SessionPool pool;
  const auto plan = PlanFor(service, models::MakeSwiftNetCellA());

  {
    util::StatusOr<SessionPool::Lease> lease = pool.Checkout(plan, kInf);
    ASSERT_TRUE(lease.ok()) << lease.status().ToString();
    const std::vector<runtime::Tensor> inputs =
        serenity::testing::RandomInputsFor((*lease)->graph(), 11);
    (*lease)->Run(inputs);
    runtime::ReferenceExecutor reference((*lease)->graph());
    reference.Run(inputs, plan->plan.schedule);
    EXPECT_EQ(serenity::testing::DescribeSinkDivergence(
                  (*lease)->executor().SinkValues(), reference.SinkValues()),
              "");
  }
  SessionPoolStats stats = pool.stats();
  EXPECT_EQ(stats.checkouts, 1u);
  EXPECT_EQ(stats.creations, 1u);
  EXPECT_EQ(stats.returns, 1u);
  EXPECT_EQ(stats.sessions_idle, 1u);
  EXPECT_EQ(stats.sessions_leased, 0u);

  // The second checkout reuses the pooled session and the pooled block —
  // no new activation memory.
  util::StatusOr<SessionPool::Lease> again = pool.Checkout(plan, kInf);
  ASSERT_TRUE(again.ok());
  stats = pool.stats();
  EXPECT_EQ(stats.reuses, 1u);
  EXPECT_EQ(stats.creations, 1u);
  EXPECT_EQ(stats.blocks, 1u);
  EXPECT_EQ(stats.block_bytes, BlockBytesOf(*plan));
  EXPECT_EQ(stats.arena_bytes_pooled, stats.block_bytes);
  EXPECT_EQ(stats.pooled_bytes, stats.block_bytes + WeightBytesOf(*plan));
}

// The cross-request pin's graphs: the paper's nine cells, seeded random
// cells (concat blocks the rewriter turns into in-place partial convs and
// concat views) and seeded RandWire cells (fused nodes, whose scratch lives
// outside the arena).
std::vector<graph::Graph> CrossRequestGraphs() {
  std::vector<graph::Graph> graphs;
  for (const models::BenchmarkCell& cell : models::AllBenchmarkCells()) {
    graphs.push_back(cell.factory());
  }
  for (int seed = 0; seed < 6; ++seed) {
    models::RandomCellParams p;
    p.seed = 7919u * static_cast<std::uint64_t>(seed) + 3;
    p.num_intermediates = 4 + seed;
    p.concat_branches = 3 + seed % 2;
    p.depthwise_block = seed % 2 == 0;
    p.num_cells = 1 + seed % 2;
    p.channels = 4 + seed % 3;
    p.spatial = 8;
    p.name = "pin_random_cell";
    graphs.push_back(models::MakeRandomCellNetwork(p));
  }
  for (int seed = 0; seed < 3; ++seed) {
    models::RandWireParams p;
    p.num_nodes = 8 + 2 * seed;
    p.seed = 101 + static_cast<std::uint64_t>(seed);
    p.channels = 8;
    p.spatial = 8;
    p.input_spatial = 16;
    p.name = "pin_randwire";
    graphs.push_back(models::MakeRandWireCell(p));
  }
  return graphs;
}

// True when both sink lists have the same shapes and the same bytes.
bool SameSinkBytes(const std::vector<runtime::Tensor>& x,
                   const std::vector<runtime::Tensor>& y) {
  if (x.size() != y.size()) return false;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (!(x[i].shape() == y[i].shape())) return false;
    const std::vector<float> a = x[i].ToVector();
    const std::vector<float> b = y[i].ToVector();
    if (std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

// A returned lease goes back to the pool unwiped, session and block, and
// the next lease may run any plan in that block. In a pool whose checkouts
// never overlap there is one block, so every request below runs in the
// block the previous request just used: request A of each graph on a new
// session, right after the previous graph's plan ran there (with its
// fused-cell scratch where this plan's arena is, and the other way round),
// then request B on the reused session. Each must give the bytes a fresh
// standalone session and the ReferenceExecutor give: nothing a previous
// request left in the block, of this plan or another, can reach its sinks.
// The canary pass fills the arena with NaNs before every Run, so a kernel
// that read a byte it had not written in the same Run would show up as a
// NaN in the sinks; its touched peak must still be exactly the plan's
// arena, however large the block.
TEST(SessionPool, ReturnedSessionServesTheNextRequestUnwiped) {
  SchedulerService service;
  SessionPool plain_pool;
  SessionPoolOptions canary_options;
  canary_options.session.executor.measure_touched_peak = true;
  SessionPool canary_pool(canary_options);
  std::string previous = "a new block";
  for (const graph::Graph& g : CrossRequestGraphs()) {
    const auto plan = PlanFor(service, g);
    ASSERT_NE(plan, nullptr) << g.name();
    const graph::Graph& scheduled = plan->result.scheduled_graph;
    // Per request: its inputs, a fresh session's sinks, the reference's.
    struct Expected {
      std::vector<runtime::Tensor> inputs;
      std::vector<runtime::Tensor> fresh;
      std::vector<runtime::Tensor> reference;
    };
    std::vector<Expected> requests;
    for (const std::uint64_t seed : {1, 2}) {
      Expected e;
      e.inputs = serenity::testing::RandomInputsFor(scheduled, seed);
      InferenceSession fresh(plan);
      fresh.Run(e.inputs);
      e.fresh = fresh.executor().SinkValues();
      runtime::ReferenceExecutor reference(scheduled);
      reference.Run(e.inputs, plan->plan.schedule);
      e.reference = reference.SinkValues();
      requests.push_back(std::move(e));
    }

    for (SessionPool* pool : {&plain_pool, &canary_pool}) {
      const bool canary = pool == &canary_pool;
      const std::uint64_t reuses = pool->stats().reuses;
      for (std::size_t r = 0; r < requests.size(); ++r) {
        const std::string label =
            g.name() + (r == 0 ? " request A after " + previous
                               : std::string(" request B after A")) +
            (canary ? " (canary fill)" : " (no fill)");
        util::StatusOr<SessionPool::Lease> lease = pool->Checkout(plan, kInf);
        ASSERT_TRUE(lease.ok()) << label;
        ASSERT_EQ(pool->stats().reuses, reuses + r) << label;
        ASSERT_EQ(pool->stats().blocks, 1u) << label;
        (*lease)->Run(requests[r].inputs);
        const std::vector<runtime::Tensor> pooled =
            (*lease)->executor().SinkValues();
        if (canary) {
          EXPECT_EQ((*lease)->executor().touched_peak_bytes(),
                    plan->plan.arena.arena_bytes)
              << label;
        }
        EXPECT_TRUE(SameSinkBytes(pooled, requests[r].fresh))
            << label << ": pooled session differs from a fresh one";
        EXPECT_TRUE(SameSinkBytes(pooled, requests[r].reference))
            << label << ": pooled session differs from the reference";
      }
    }
    previous = g.name();
  }
}

// True when a Run of `session` on `inputs` gives the ReferenceExecutor's
// sink bytes under the session's own plan.
bool RunsLikeTheReference(InferenceSession& session,
                          const std::vector<runtime::Tensor>& inputs) {
  session.Run(inputs);
  runtime::ReferenceExecutor reference(session.graph());
  reference.Run(inputs, session.plan().plan.schedule);
  return SameSinkBytes(session.executor().SinkValues(),
                       reference.SinkValues());
}

// The sessions of one CachedPlan read one copy of its weights: only the
// first creation materializes them (heap growth per creation, measured with
// alloc_counter.h), the pool charges that copy once, it dies with the
// plan's last pooled session (and its bytes are refunded), and a new
// CachedPlan under the same hash (an upgrade, whose scheduled graph may
// number its nodes differently) never borrows them.
TEST(SessionPool, SessionsOfOnePlanShareOneWeightCopy) {
  if (!serenity::testing::ByteTrackingAvailable()) {
    GTEST_SKIP() << "heap byte tracking needs malloc_usable_size";
  }
  using serenity::testing::ThreadAllocationCount;
  using serenity::testing::ThreadLiveBytes;
  SchedulerService service;
  const auto plan = PlanFor(service, models::MakeRandWireCifar100CellB());
  // Cell C runs in Cell B's blocks, and its weights are more than two
  // copies of Cell B's: making room for them evicts every idle Cell B
  // session, while an upgrade's second Cell B copy still fits.
  const auto heavy = PlanFor(service, models::MakeRandWireCifar100CellC());
  ASSERT_TRUE(plan != nullptr && heavy != nullptr);
  const graph::Graph& scheduled = plan->result.scheduled_graph;
  const std::int64_t block = BlockBytesOf(*plan);
  const std::int64_t plan_weights = WeightBytesOf(*plan);
  ASSERT_GE(block, BlockBytesOf(*heavy));
  ASSERT_GT(WeightBytesOf(*heavy), 2 * plan_weights);
  std::int64_t weight_bytes = 0;
  std::uint64_t weight_allocs = 0;
  {
    const std::int64_t bytes_before = ThreadLiveBytes();
    const std::uint64_t allocs_before = ThreadAllocationCount();
    const auto weights = runtime::MaterializeGraphWeights(scheduled);
    weight_bytes = ThreadLiveBytes() - bytes_before;
    weight_allocs = ThreadAllocationCount() - allocs_before;
  }
  // A later creation's new block is far smaller than the weights.
  ASSERT_GT(weight_bytes, 2 * block);  // about 0.64 MB

  SessionPoolOptions options;
  // Four of Cell B's blocks and Cell C's weights.
  options.max_pooled_bytes = 4 * block + WeightBytesOf(*heavy);
  SessionPool pool(options);
  const std::vector<runtime::Tensor> inputs =
      serenity::testing::RandomInputsFor(scheduled, 17);

  std::weak_ptr<const runtime::GraphWeights> first_weights;
  std::uint64_t shared_creation_allocs = 0;
  {
    std::vector<SessionPool::Lease> leases;
    for (int i = 0; i < 4; ++i) {
      const std::int64_t bytes_before = ThreadLiveBytes();
      const std::uint64_t allocs_before = ThreadAllocationCount();
      util::StatusOr<SessionPool::Lease> lease = pool.Checkout(plan, kInf);
      const std::int64_t grown = ThreadLiveBytes() - bytes_before;
      ASSERT_TRUE(lease.ok()) << lease.status().ToString();
      if (i == 0) {
        EXPECT_GE(grown, weight_bytes) << "creation " << i + 1;
        first_weights = (*lease)->executor().weights();
      } else {
        EXPECT_LT(grown, weight_bytes) << "creation " << i + 1;
        EXPECT_EQ((*lease)->executor().weights().get(),
                  first_weights.lock().get());
        shared_creation_allocs = ThreadAllocationCount() - allocs_before;
      }
      leases.push_back(std::move(*lease));
    }
    const SessionPoolStats stats = pool.stats();
    EXPECT_EQ(stats.creations, 4u);
    EXPECT_EQ(stats.blocks, 4u);
    EXPECT_EQ(stats.pooled_bytes, 4 * block + plan_weights);  // one copy
    for (SessionPool::Lease& lease : leases) {
      EXPECT_TRUE(RunsLikeTheReference(lease.session(), inputs));
    }
  }

  // Evicting every Cell B session frees the weights with the last one, and
  // refunds them... (These checkouts fail fast: room must come from
  // eviction, never from a wait.)
  {
    util::StatusOr<SessionPool::Lease> lease = pool.Checkout(heavy, 0);
    ASSERT_TRUE(lease.ok()) << lease.status().ToString();
    const SessionPoolStats stats = pool.stats();
    EXPECT_EQ(stats.evictions, 4u);
    EXPECT_TRUE(first_weights.expired());
    EXPECT_EQ(stats.blocks, 4u);
    EXPECT_EQ(stats.pooled_bytes, 4 * block + WeightBytesOf(*heavy));
  }
  // ... so the next checkout builds them again. (Its byte growth is masked
  // by evicting Cell C to make room; the allocations are not. It runs in a
  // free block, so unlike the shared creations above it builds no block:
  // it makes at least the weights' allocations, which are more than a
  // whole shared creation, new block included, makes.)
  ASSERT_LT(shared_creation_allocs, weight_allocs);
  const std::uint64_t allocs_before = ThreadAllocationCount();
  util::StatusOr<SessionPool::Lease> rebuilt = pool.Checkout(plan, 0);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_GE(ThreadAllocationCount() - allocs_before, weight_allocs);
  EXPECT_EQ(pool.stats().creations, 6u);
  EXPECT_EQ(pool.stats().pooled_bytes, 4 * block + plan_weights);
  EXPECT_TRUE(RunsLikeTheReference(rebuilt->session(), inputs));

  // An upgrade maps the same hash to a new CachedPlan over a relabeled twin
  // graph: node ids differ, so Cell B's live weights must not be lent.
  util::Rng rng(29);
  const graph::Graph twin = serenity::testing::RelabelIsomorphic(
      models::MakeRandWireCifar100CellB(), rng, "twin");
  ASSERT_EQ(graph::CanonicalGraphHash(twin), plan->hash);
  auto upgraded = std::make_shared<CachedPlan>(*plan);
  upgraded->result = core::Pipeline().Run(twin);
  ASSERT_TRUE(upgraded->result.status.ok());
  upgraded->plan = serialize::MakePlan(upgraded->result.scheduled_graph,
                                       upgraded->result.schedule);
  ASSERT_LE(BlockBytesOf(*upgraded), block);
  util::StatusOr<SessionPool::Lease> on_upgrade =
      pool.Checkout(upgraded, 0);
  ASSERT_TRUE(on_upgrade.ok()) << on_upgrade.status().ToString();
  EXPECT_EQ(pool.stats().creations, 7u);
  EXPECT_EQ(pool.stats().pooled_bytes,
            4 * block + plan_weights + WeightBytesOf(*upgraded));
  EXPECT_NE((*on_upgrade)->executor().weights().get(),
            (*rebuilt)->executor().weights().get());
  EXPECT_TRUE(RunsLikeTheReference(on_upgrade->session(),
                                   serenity::testing::RandomInputsFor(
                                       upgraded->result.scheduled_graph, 17)));
  EXPECT_TRUE(RunsLikeTheReference(rebuilt->session(), inputs));
}

// An upgrade maps a hash to a new CachedPlan. The next checkout must run
// that plan, not an idle session built over the old one: the pool destroys
// the old plan's idle sessions when it rebinds, and destroys (not pools) an
// old-plan session that comes back from a lease afterwards.
TEST(SessionPool, CheckoutAfterUpgradeNeverServesTheOldPlan) {
  SchedulerService service;
  const auto plan = PlanFor(service, models::MakeRandWireCifar100CellC());
  ASSERT_NE(plan, nullptr);
  // The twin renumbers the nodes and reseeds the weights, neither of which
  // the canonical hash sees, so an old-plan session would give other sinks.
  util::Rng rng(29);
  graph::Graph twin = serenity::testing::RelabelIsomorphic(
      models::MakeRandWireCifar100CellC(), rng, "twin");
  for (graph::NodeId id = 0; id < twin.num_nodes(); ++id) {
    twin.mutable_node(id).weight_seed ^= 0x5eed;
  }
  ASSERT_EQ(graph::CanonicalGraphHash(twin), plan->hash);
  auto upgraded = std::make_shared<CachedPlan>(*plan);
  upgraded->result = core::Pipeline().Run(twin);
  ASSERT_TRUE(upgraded->result.status.ok());
  upgraded->plan = serialize::MakePlan(upgraded->result.scheduled_graph,
                                       upgraded->result.schedule);
  const std::vector<runtime::Tensor> inputs =
      serenity::testing::RandomInputsFor(upgraded->result.scheduled_graph, 17);
  runtime::ReferenceExecutor reference(upgraded->result.scheduled_graph);
  reference.Run(inputs, upgraded->plan.schedule);

  SessionPool pool;
  util::StatusOr<SessionPool::Lease> old_leased = pool.Checkout(plan, kInf);
  ASSERT_TRUE(old_leased.ok()) << old_leased.status().ToString();
  { ASSERT_TRUE(pool.Checkout(plan, kInf).ok()); }  // one idle old session
  ASSERT_EQ(pool.stats().sessions_idle, 1u);

  {
    util::StatusOr<SessionPool::Lease> lease = pool.Checkout(upgraded, kInf);
    ASSERT_TRUE(lease.ok()) << lease.status().ToString();
    EXPECT_EQ(&(*lease)->plan(), upgraded.get());
    (*lease)->Run(inputs);
    EXPECT_TRUE(
        SameSinkBytes((*lease)->executor().SinkValues(), reference.SinkValues()));
    const SessionPoolStats stats = pool.stats();
    EXPECT_EQ(stats.reuses, 0u);
    EXPECT_EQ(stats.creations, 3u);
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.sessions_idle, 0u);
  }
  // The old plan's leased session comes back and is destroyed, and the
  // old weights' bytes with it. Its block stays pooled: the two blocks of
  // the two concurrent old-plan leases, the second grown if the upgraded
  // plan needs more.
  *old_leased = SessionPool::Lease();
  const SessionPoolStats stats = pool.stats();
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.sessions_idle, 1u);
  EXPECT_EQ(stats.blocks, 2u);
  EXPECT_EQ(stats.block_bytes,
            BlockBytesOf(*plan) +
                std::max(BlockBytesOf(*plan), BlockBytesOf(*upgraded)));
  EXPECT_EQ(stats.arena_bytes_pooled, stats.block_bytes);
  EXPECT_EQ(stats.pooled_bytes, stats.block_bytes + WeightBytesOf(*upgraded));
  util::StatusOr<SessionPool::Lease> reused = pool.Checkout(upgraded, kInf);
  ASSERT_TRUE(reused.ok()) << reused.status().ToString();
  EXPECT_EQ(&(*reused)->plan(), upgraded.get());
  EXPECT_EQ(pool.stats().reuses, 1u);
}

// Sessions of one plan on different threads read the shared weights at the
// same time (the race a sanitizer build watches) and each still gives the
// reference's sink bytes.
TEST(SessionPool, ConcurrentSessionsReadTheSharedWeights) {
  SchedulerService service;
  SessionPool pool;
  const auto plan = PlanFor(service, models::MakeRandWireCifar100CellC());
  ASSERT_NE(plan, nullptr);
  const graph::Graph& scheduled = plan->result.scheduled_graph;
  constexpr int kThreads = 4;
  std::vector<std::vector<runtime::Tensor>> inputs;
  std::vector<std::vector<runtime::Tensor>> expected;
  for (int t = 0; t < kThreads; ++t) {
    inputs.push_back(serenity::testing::RandomInputsFor(scheduled, 40 + t));
    runtime::ReferenceExecutor reference(scheduled);
    reference.Run(inputs.back(), plan->plan.schedule);
    expected.push_back(reference.SinkValues());
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int request = 0; request < 3; ++request) {
        util::StatusOr<SessionPool::Lease> lease = pool.Checkout(plan, kInf);
        if (!lease.ok()) {
          mismatches += 1;
          return;
        }
        (*lease)->Run(inputs[static_cast<std::size_t>(t)]);
        if (!SameSinkBytes((*lease)->executor().SinkValues(),
                           expected[static_cast<std::size_t>(t)])) {
          mismatches += 1;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(pool.stats().checkouts, static_cast<std::uint64_t>(3 * kThreads));
}

TEST(SessionPool, PerPlanCapShedsAfterBoundedWait) {
  SchedulerService service;
  SessionPoolOptions options;
  options.max_sessions_per_plan = 1;
  SessionPool pool(options);
  const auto plan = PlanFor(service, models::MakeSwiftNetCellA());

  util::StatusOr<SessionPool::Lease> held = pool.Checkout(plan, kInf);
  ASSERT_TRUE(held.ok());
  const auto start = std::chrono::steady_clock::now();
  util::StatusOr<SessionPool::Lease> blocked = pool.Checkout(plan, 0.05);
  const auto waited = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.status().code(), util::StatusCode::kResourceExhausted);
  EXPECT_GE(std::chrono::duration<double>(waited).count(), 0.05);
  const SessionPoolStats stats = pool.stats();
  EXPECT_EQ(stats.waits, 1u);
  EXPECT_EQ(stats.sheds, 1u);
}

TEST(SessionPool, FailFastWithZeroBudgetNeverQueues) {
  SchedulerService service;
  SessionPoolOptions options;
  options.max_sessions_per_plan = 1;
  SessionPool pool(options);
  const auto plan = PlanFor(service, models::MakeSwiftNetCellA());

  util::StatusOr<SessionPool::Lease> held = pool.Checkout(plan, kInf);
  ASSERT_TRUE(held.ok());
  util::StatusOr<SessionPool::Lease> shed = pool.Checkout(plan, 0);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), util::StatusCode::kResourceExhausted);
  EXPECT_EQ(pool.stats().waits, 0u);  // deadline-aware: no pointless queue
}

TEST(SessionPool, ReturnUnblocksWaiterWithinDeadline) {
  SchedulerService service;
  SessionPoolOptions options;
  options.max_sessions_per_plan = 1;
  SessionPool pool(options);
  const auto plan = PlanFor(service, models::MakeSwiftNetCellA());

  std::atomic<bool> released{false};
  util::StatusOr<SessionPool::Lease> held = pool.Checkout(plan, kInf);
  ASSERT_TRUE(held.ok());
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    released.store(true);
    held = util::ResourceExhaustedError("dropped");  // returns the lease
  });
  util::StatusOr<SessionPool::Lease> waiter = pool.Checkout(plan, 10.0);
  releaser.join();
  ASSERT_TRUE(waiter.ok()) << waiter.status().ToString();
  EXPECT_TRUE(released.load());  // the wait really blocked until the return
  const SessionPoolStats stats = pool.stats();
  EXPECT_EQ(stats.waits, 1u);
  EXPECT_EQ(stats.reuses, 1u);
}

// The merged wait loop polls the cancel token even when the timeout is
// infinite: a fired token ends the wait within about one 50 ms slice.
TEST(SessionPool, CancelledWaitWithInfiniteTimeoutReturnsPromptly) {
  SchedulerService service;
  SessionPoolOptions options;
  options.max_sessions_per_plan = 1;
  SessionPool pool(options);
  const auto plan = PlanFor(service, models::MakeSwiftNetCellA());

  util::StatusOr<SessionPool::Lease> held = pool.Checkout(plan, kInf);
  ASSERT_TRUE(held.ok());
  util::CancelToken cancel;
  std::thread canceller([&cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    cancel.Cancel();
  });
  const auto start = std::chrono::steady_clock::now();
  util::StatusOr<SessionPool::Lease> waiter =
      pool.Checkout(plan, kInf, &cancel);
  const double waited = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
  canceller.join();
  ASSERT_FALSE(waiter.ok());
  EXPECT_EQ(waiter.status().code(), util::StatusCode::kCancelled);
  // 20 ms to the fire plus one 50 ms slice, with room for a loaded or
  // sanitized build.
  EXPECT_LT(waited, 0.25);
  const SessionPoolStats stats = pool.stats();
  EXPECT_EQ(stats.cancelled_waits, 1u);
  EXPECT_EQ(stats.waits, 1u);
  EXPECT_EQ(stats.sheds, 0u);
}

TEST(SessionPool, ByteCapEvictsIdleSessionsOfOtherPlans) {
  SchedulerService service;
  const auto plan_a = PlanFor(service, models::MakeSwiftNetCellA());
  const auto plan_b = PlanFor(service, models::MakeSwiftNetCellB());
  SessionPoolOptions options;
  // Room for the larger block and the larger weight copy, never for both
  // plans' weights.
  const std::int64_t block =
      std::max(BlockBytesOf(*plan_a), BlockBytesOf(*plan_b));
  options.max_pooled_bytes =
      block + std::max(WeightBytesOf(*plan_a), WeightBytesOf(*plan_b));
  ASSERT_GT(block + WeightBytesOf(*plan_a) + WeightBytesOf(*plan_b),
            options.max_pooled_bytes);
  SessionPool pool(options);

  { auto lease = pool.Checkout(plan_a, kInf); ASSERT_TRUE(lease.ok()); }
  EXPECT_EQ(pool.stats().sessions_idle, 1u);

  // Plan B's weights cannot fit next to A's idle session: A is evicted. B
  // runs in A's block, grown if B needs more.
  util::StatusOr<SessionPool::Lease> lease_b = pool.Checkout(plan_b, 0);
  ASSERT_TRUE(lease_b.ok()) << lease_b.status().ToString();
  const SessionPoolStats stats = pool.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.creations, 2u);
  EXPECT_EQ(stats.blocks, 1u);
  EXPECT_EQ(stats.block_bytes, block);
  EXPECT_EQ(stats.arena_bytes_pooled, block);
  EXPECT_EQ(stats.pooled_bytes, block + WeightBytesOf(*plan_b));
}

// Free blocks are reclaimable, like idle sessions: a plan whose block and
// weights fit the cap on their own is served once nothing is leased, even
// when free blocks of an earlier, wider burst hold the room. RandWire
// CIFAR-10 Cell B runs in Cell A's blocks but its weights outgrow Cell A's
// by less than a block; DARTS must grow a Cell A block. The cap holds two
// Cell A blocks and Cell A's weights, and each checkout below fails fast,
// so the room must come from eviction.
TEST(SessionPool, FreeBlocksGiveWayToAPlanThatFitsTheCap) {
  SchedulerService service;
  const auto plan_a = PlanFor(service, models::MakeRandWireCifar10CellA());
  const auto plan_b = PlanFor(service, models::MakeRandWireCifar10CellB());
  const auto wide = PlanFor(service, models::MakeDartsNormalCell());
  ASSERT_TRUE(plan_a != nullptr && plan_b != nullptr && wide != nullptr);
  const std::int64_t block = BlockBytesOf(*plan_a);
  ASSERT_LE(BlockBytesOf(*plan_b), block);
  ASSERT_GT(WeightBytesOf(*plan_b), WeightBytesOf(*plan_a));
  ASSERT_GT(BlockBytesOf(*wide), block);
  const auto burst_of_a = [&](SessionPool& pool) {
    util::StatusOr<SessionPool::Lease> first = pool.Checkout(plan_a, 0);
    util::StatusOr<SessionPool::Lease> second = pool.Checkout(plan_a, 0);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    ASSERT_TRUE(second.ok()) << second.status().ToString();
  };
  const auto serves = [](SessionPool& pool,
                         const std::shared_ptr<const CachedPlan>& plan) {
    util::StatusOr<SessionPool::Lease> lease = pool.Checkout(plan, 0);
    if (!lease.ok()) {
      ADD_FAILURE() << lease.status().ToString();
      return;
    }
    EXPECT_TRUE(RunsLikeTheReference(
        lease->session(), serenity::testing::RandomInputsFor(
                              plan->result.scheduled_graph, 5)));
  };

  util::MemoryBudget ledger(std::int64_t{64} << 20);
  {
    SessionPoolOptions options;
    options.max_pooled_bytes = 2 * block + WeightBytesOf(*plan_a);
    options.arena_budget = &ledger;
    ASSERT_LE(BlockBytesOf(*plan_b) + WeightBytesOf(*plan_b),
              options.max_pooled_bytes);
    ASSERT_GT(2 * block + WeightBytesOf(*plan_b), options.max_pooled_bytes);
    SessionPool pool(options);
    burst_of_a(pool);
    ASSERT_EQ(pool.stats().blocks, 2u);
    // Cell B's first weight copy is charged once built: the idle Cell A
    // sessions go, then the free Cell A block.
    serves(pool, plan_b);
    SessionPoolStats stats = pool.stats();
    EXPECT_EQ(stats.evictions, 2u);
    EXPECT_EQ(stats.blocks, 1u);
    EXPECT_EQ(stats.block_bytes, block);
    EXPECT_EQ(stats.pooled_bytes, block + WeightBytesOf(*plan_b));
    EXPECT_EQ(ledger.used_bytes(), stats.pooled_bytes);
    // Again, with Cell B's weights charged up front now that their size is
    // known: the second Cell A lease of the burst evicts the idle Cell B
    // session, and Cell B evicts the burst's sessions and a block.
    burst_of_a(pool);
    serves(pool, plan_b);
    stats = pool.stats();
    EXPECT_EQ(stats.creations, 6u);
    EXPECT_EQ(stats.evictions, 5u);
    EXPECT_EQ(stats.blocks, 1u);
    EXPECT_EQ(stats.pooled_bytes, block + WeightBytesOf(*plan_b));
    EXPECT_EQ(ledger.used_bytes(), stats.pooled_bytes);
  }
  EXPECT_EQ(ledger.used_bytes(), 0);
  {
    SessionPoolOptions options;
    options.max_pooled_bytes = 2 * block + WeightBytesOf(*plan_a);
    options.arena_budget = &ledger;
    ASSERT_LE(BlockBytesOf(*wide) + WeightBytesOf(*wide),
              options.max_pooled_bytes);
    SessionPool pool(options);
    burst_of_a(pool);
    // DARTS grows the top free block; the other one makes room for it.
    serves(pool, wide);
    const SessionPoolStats stats = pool.stats();
    EXPECT_EQ(stats.evictions, 2u);
    EXPECT_EQ(stats.blocks, 1u);
    EXPECT_EQ(stats.block_bytes, BlockBytesOf(*wide));
    EXPECT_EQ(stats.pooled_bytes, stats.block_bytes + WeightBytesOf(*wide));
    EXPECT_EQ(ledger.used_bytes(), stats.pooled_bytes);
  }
  EXPECT_EQ(ledger.used_bytes(), 0);
}

// A new block is built to the largest need seen so far only when the cap
// has room for it. Here a DARTS lease is held and the cap holds DARTS's
// block and weights plus exactly Cell A's: Cell A's first checkout, whose
// weights are measured only once built, must end on a block of its own
// need, not DARTS's, and be served without waiting.
TEST(SessionPool, NewBlockTakesThePlansNeedUnderATightCap) {
  SchedulerService service;
  const auto wide = PlanFor(service, models::MakeDartsNormalCell());
  const auto plan_a = PlanFor(service, models::MakeRandWireCifar10CellA());
  ASSERT_TRUE(wide != nullptr && plan_a != nullptr);
  ASSERT_GT(BlockBytesOf(*wide), BlockBytesOf(*plan_a));
  util::MemoryBudget ledger(std::int64_t{64} << 20);
  SessionPoolOptions options;
  options.max_pooled_bytes = BlockBytesOf(*wide) + WeightBytesOf(*wide) +
                             BlockBytesOf(*plan_a) + WeightBytesOf(*plan_a);
  options.arena_budget = &ledger;
  SessionPool pool(options);
  util::StatusOr<SessionPool::Lease> held = pool.Checkout(wide, 0);
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  {
    util::StatusOr<SessionPool::Lease> lease = pool.Checkout(plan_a, 0);
    ASSERT_TRUE(lease.ok()) << lease.status().ToString();
    EXPECT_TRUE(RunsLikeTheReference(
        lease->session(), serenity::testing::RandomInputsFor(
                              plan_a->result.scheduled_graph, 6)));
  }
  const SessionPoolStats stats = pool.stats();
  EXPECT_EQ(stats.blocks, 2u);
  EXPECT_EQ(stats.block_bytes, BlockBytesOf(*wide) + BlockBytesOf(*plan_a));
  EXPECT_EQ(stats.pooled_bytes, options.max_pooled_bytes);
  EXPECT_EQ(ledger.used_bytes(), stats.pooled_bytes);
}

// Activation blocks follow concurrency, not plans. The nine paper cells
// are checked out four leases at a time (how a serving stack warms every
// pooled session), then four threads cycle through all nine plans at once,
// each checking its sinks against a standalone session's (which
// ReturnedSessionServesTheNextRequestUnwiped holds to the reference's).
// Whatever plan a block ran last, at most four requests were ever in
// flight, so the pool holds at most four blocks, each no larger than the
// largest plan needs, while it keeps four sessions of every plan.
TEST(SessionPool, BlocksFollowConcurrencyNotPlans) {
  SchedulerService service;
  SessionPool pool;
  constexpr int kConcurrent = 4;
  struct Cell {
    std::shared_ptr<const CachedPlan> plan;
    std::vector<runtime::Tensor> inputs;
    std::vector<runtime::Tensor> expect;
  };
  std::vector<Cell> cells;
  std::int64_t largest_need = 0;
  for (const models::BenchmarkCell& benchmark : models::AllBenchmarkCells()) {
    Cell cell;
    cell.plan = PlanFor(service, benchmark.factory());
    ASSERT_NE(cell.plan, nullptr);
    const graph::Graph& scheduled = cell.plan->result.scheduled_graph;
    cell.inputs = serenity::testing::RandomInputsFor(scheduled, 23);
    InferenceSession standalone(cell.plan);
    standalone.Run(cell.inputs);
    cell.expect = standalone.executor().SinkValues();
    largest_need = std::max(largest_need, BlockBytesOf(*cell.plan));
    cells.push_back(std::move(cell));
  }
  ASSERT_EQ(cells.size(), 9u);

  for (const Cell& cell : cells) {
    std::vector<SessionPool::Lease> leases;
    for (int i = 0; i < kConcurrent; ++i) {
      util::StatusOr<SessionPool::Lease> lease =
          pool.Checkout(cell.plan, kInf);
      ASSERT_TRUE(lease.ok()) << lease.status().ToString();
      (*lease)->Run(cell.inputs);
      EXPECT_TRUE(
          SameSinkBytes((*lease)->executor().SinkValues(), cell.expect))
          << cell.plan->result.scheduled_graph.name();
      leases.push_back(std::move(*lease));
    }
  }
  SessionPoolStats stats = pool.stats();
  EXPECT_EQ(stats.creations, static_cast<std::uint64_t>(9 * kConcurrent));
  EXPECT_EQ(stats.sessions_idle, static_cast<std::uint64_t>(9 * kConcurrent));
  EXPECT_EQ(stats.blocks, static_cast<std::uint64_t>(kConcurrent));
  EXPECT_LE(stats.block_bytes, kConcurrent * largest_need);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kConcurrent; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t request = 0; request < cells.size(); ++request) {
        const Cell& cell =
            cells[(request + static_cast<std::size_t>(2 * t)) % cells.size()];
        util::StatusOr<SessionPool::Lease> lease =
            pool.Checkout(cell.plan, kInf);
        if (!lease.ok()) {
          mismatches += 1;
          return;
        }
        (*lease)->Run(cell.inputs);
        if (!SameSinkBytes((*lease)->executor().SinkValues(), cell.expect)) {
          mismatches += 1;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  stats = pool.stats();
  EXPECT_EQ(stats.creations, static_cast<std::uint64_t>(9 * kConcurrent));
  EXPECT_LE(stats.blocks, static_cast<std::uint64_t>(kConcurrent));
  EXPECT_LE(stats.block_bytes, kConcurrent * largest_need);
  EXPECT_EQ(stats.arena_bytes_pooled, stats.block_bytes);
}

// Building or growing a block is the one place a checkout allocates
// activation memory, and it can fail. An injected failure there sheds the
// checkout with kResourceExhausted and leaves every account as it was: the
// pooled bytes, the blocks and the governor ledger, with no lease or
// session slot leaked, whether the checkout was building a new session, on
// a new block or a grown one, or reusing an idle session whose free block
// had to grow.
TEST(SessionPool, InjectedBlockFaultShedsAndLeavesTheAccountsBalanced) {
  using serenity::testing::FaultPoint;
  using serenity::testing::ScopedFault;
  SchedulerService service;
  const auto small = PlanFor(service, models::MakeSwiftNetCellC());
  const auto big = PlanFor(service, models::MakeDartsNormalCell());
  ASSERT_TRUE(small != nullptr && big != nullptr);
  ASSERT_LT(BlockBytesOf(*small), BlockBytesOf(*big));
  util::MemoryBudget ledger(std::int64_t{64} << 20);
  {
    SessionPoolOptions options;
    options.arena_budget = &ledger;
    SessionPool pool(options);
    const auto expect_unchanged = [&](const SessionPoolStats& before,
                                      std::int64_t ledger_before,
                                      const std::string& label) {
      const SessionPoolStats after = pool.stats();
      EXPECT_EQ(after.blocks, before.blocks) << label;
      EXPECT_EQ(after.block_bytes, before.block_bytes) << label;
      EXPECT_EQ(after.pooled_bytes, before.pooled_bytes) << label;
      EXPECT_EQ(after.sessions_idle, before.sessions_idle) << label;
      EXPECT_EQ(after.sessions_leased, before.sessions_leased) << label;
      EXPECT_EQ(after.sheds, before.sheds + 1) << label;
      EXPECT_EQ(ledger.used_bytes(), ledger_before) << label;
      EXPECT_EQ(ledger.used_bytes(), after.pooled_bytes) << label;
    };
    const auto checkout_with_fault = [&](const auto& plan) {
      ScopedFault fault(FaultPoint::kArenaAllocation);
      util::StatusOr<SessionPool::Lease> lease = pool.Checkout(plan, kInf);
      EXPECT_FALSE(lease.ok());
      return lease.ok() ? util::OkStatus() : lease.status();
    };

    // A new session on a new block.
    SessionPoolStats before = pool.stats();
    util::Status shed = checkout_with_fault(small);
    EXPECT_EQ(shed.code(), util::StatusCode::kResourceExhausted);
    expect_unchanged(before, 0, "first checkout");

    // Two concurrent small leases leave two small free blocks and two idle
    // sessions.
    {
      util::StatusOr<SessionPool::Lease> a = pool.Checkout(small, kInf);
      util::StatusOr<SessionPool::Lease> b = pool.Checkout(small, kInf);
      ASSERT_TRUE(a.ok() && b.ok());
    }
    ASSERT_EQ(pool.stats().blocks, 2u);

    // A new session on a block that must grow: the block goes back as it
    // was.
    before = pool.stats();
    std::int64_t ledger_before = ledger.used_bytes();
    shed = checkout_with_fault(big);
    EXPECT_EQ(shed.code(), util::StatusCode::kResourceExhausted);
    expect_unchanged(before, ledger_before, "new big session, grown block");

    // Disarmed: the big plan grows the top block and runs. Then a small
    // lease holds that grown block, so an idle big session meets a small
    // free block that must grow — and the growth fails again.
    {
      util::StatusOr<SessionPool::Lease> lease = pool.Checkout(big, kInf);
      ASSERT_TRUE(lease.ok()) << lease.status().ToString();
      EXPECT_TRUE(RunsLikeTheReference(lease->session(),
                                       serenity::testing::RandomInputsFor(
                                           big->result.scheduled_graph, 3)));
    }
    util::StatusOr<SessionPool::Lease> held = pool.Checkout(small, kInf);
    ASSERT_TRUE(held.ok());
    before = pool.stats();
    ledger_before = ledger.used_bytes();
    const std::uint64_t reuses = before.reuses;
    shed = checkout_with_fault(big);
    EXPECT_EQ(shed.code(), util::StatusCode::kResourceExhausted);
    expect_unchanged(before, ledger_before, "idle big session, grown block");
    EXPECT_EQ(pool.stats().reuses, reuses);

    // Disarmed again: the idle big session is still there and serves.
    util::StatusOr<SessionPool::Lease> retry = pool.Checkout(big, kInf);
    ASSERT_TRUE(retry.ok()) << retry.status().ToString();
    EXPECT_EQ(pool.stats().reuses, reuses + 1);
    EXPECT_EQ(pool.stats().creations, 3u);
    EXPECT_TRUE(RunsLikeTheReference(retry->session(),
                                     serenity::testing::RandomInputsFor(
                                         big->result.scheduled_graph, 4)));
    *retry = SessionPool::Lease();
    *held = SessionPool::Lease();
    const SessionPoolStats settled = pool.stats();
    EXPECT_EQ(settled.sessions_leased, 0u);
    EXPECT_EQ(settled.blocks, 2u);
    EXPECT_EQ(settled.block_bytes, 2 * BlockBytesOf(*big));
    EXPECT_EQ(settled.pooled_bytes, settled.block_bytes +
                                        WeightBytesOf(*small) +
                                        WeightBytesOf(*big));
    EXPECT_EQ(ledger.used_bytes(), settled.pooled_bytes);
  }
  // The pool's death refunds the rest.
  EXPECT_EQ(ledger.used_bytes(), 0);
}

TEST(SessionPool, PlanLargerThanCapShedsImmediately) {
  SchedulerService service;
  const auto plan = PlanFor(service, models::MakeSwiftNetCellA());
  SessionPoolOptions options;
  options.max_pooled_bytes = 1;
  SessionPool pool(options);

  util::StatusOr<SessionPool::Lease> lease = pool.Checkout(plan, kInf);
  ASSERT_FALSE(lease.ok());
  EXPECT_EQ(lease.status().code(), util::StatusCode::kResourceExhausted);
  EXPECT_EQ(pool.stats().waits, 0u);  // a wait could never have helped
}

TEST(SessionPool, InjectedCheckoutFaultShedsStructurally) {
  SchedulerService service;
  SessionPool pool;
  const auto plan = PlanFor(service, models::MakeSwiftNetCellA());
  {
    serenity::testing::ScopedFault fault(
        serenity::testing::FaultPoint::kSessionCheckout);
    util::StatusOr<SessionPool::Lease> lease = pool.Checkout(plan, kInf);
    ASSERT_FALSE(lease.ok());
    EXPECT_EQ(lease.status().code(), util::StatusCode::kResourceExhausted);
    EXPECT_EQ(pool.stats().sheds, 1u);
  }
  // Disarmed again: the next checkout succeeds.
  EXPECT_TRUE(pool.Checkout(plan, kInf).ok());
}

// The tentpole invariant: once a plan's session exists in the pool, the
// whole checkout -> infer -> return cycle performs ZERO heap allocations
// on the serving thread. Measured, not claimed: operator new is replaced
// (alloc_counter.h) and the count must not move. Two plans of different
// block sizes (one with fused-cell scratch) hold two blocks at once, and
// each round returns them in the order that hands each plan the other
// plan's block next: every checkout rebinds its session's views.
TEST(SessionPool, SteadyStateCheckoutInferReturnIsZeroAlloc) {
  SchedulerService service;
  SessionPool pool;
  const auto plan_a = PlanFor(service, models::MakeSwiftNetCellA());
  const auto plan_b = PlanFor(service, models::MakeRandWireCifar100CellC());
  ASSERT_NE(BlockBytesOf(*plan_a), BlockBytesOf(*plan_b));
  const std::vector<runtime::Tensor> inputs_a =
      serenity::testing::RandomInputsFor(plan_a->result.scheduled_graph, 42);
  const std::vector<runtime::Tensor> inputs_b =
      serenity::testing::RandomInputsFor(plan_b->result.scheduled_graph, 43);
  runtime::ReferenceExecutor reference_a(plan_a->result.scheduled_graph);
  reference_a.Run(inputs_a, plan_a->plan.schedule);
  runtime::ReferenceExecutor reference_b(plan_b->result.scheduled_graph);
  reference_b.Run(inputs_b, plan_b->plan.schedule);

  // Warm-up: builds both sessions and both blocks (allocates) and returns
  // them to the pool.
  {
    util::StatusOr<SessionPool::Lease> a = pool.Checkout(plan_a, kInf);
    util::StatusOr<SessionPool::Lease> b = pool.Checkout(plan_b, kInf);
    ASSERT_TRUE(a.ok() && b.ok());
    (*a)->Run(inputs_a);
    (*b)->Run(inputs_b);
  }
  ASSERT_EQ(pool.stats().sessions_idle, 2u);
  ASSERT_EQ(pool.stats().blocks, 2u);

  constexpr int kRounds = 16;
  const float* sink_a[kRounds];
  const std::uint64_t before = serenity::testing::ThreadAllocationCount();
  for (int i = 0; i < kRounds; ++i) {
    util::StatusOr<SessionPool::Lease> a = pool.Checkout(plan_a, kInf);
    util::StatusOr<SessionPool::Lease> b = pool.Checkout(plan_b, kInf);
    (*a)->Run(inputs_a);
    (*b)->Run(inputs_b);
    sink_a[i] = (*a)->executor().SinkViews()[0]->PixelRun(0, 0, 0, 1);
    *a = SessionPool::Lease();  // returned first, so checked out second
  }
  const std::uint64_t after = serenity::testing::ThreadAllocationCount();
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " heap allocations leaked into the hot path";
  EXPECT_EQ(pool.stats().reuses, static_cast<std::uint64_t>(2 * kRounds));
  EXPECT_EQ(pool.stats().blocks, 2u);
  for (int i = 1; i < kRounds; ++i) {
    EXPECT_NE(sink_a[i], sink_a[i - 1]) << "round " << i << " did not rebind";
  }

  // Rebinding moved the views, not the numbers.
  util::StatusOr<SessionPool::Lease> a = pool.Checkout(plan_a, kInf);
  util::StatusOr<SessionPool::Lease> b = pool.Checkout(plan_b, kInf);
  (*a)->Run(inputs_a);
  (*b)->Run(inputs_b);
  EXPECT_TRUE(SameSinkBytes((*a)->executor().SinkValues(),
                            reference_a.SinkValues()));
  EXPECT_TRUE(SameSinkBytes((*b)->executor().SinkValues(),
                            reference_b.SinkValues()));
}

}  // namespace
}  // namespace serenity::serve
