// SessionPool: bounded per-plan session pools with arena checkout/return.
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
#include "util/rng.h"
#include "util/cancel_token.h"

namespace serenity::serve {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::shared_ptr<const CachedPlan> PlanFor(SchedulerService& service,
                                          const graph::Graph& graph) {
  const ServeResult result = service.Schedule(graph);
  EXPECT_NE(result.plan, nullptr) << result.status.ToString();
  return result.plan;
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

  // The second checkout reuses the pooled session — no new arena.
  util::StatusOr<SessionPool::Lease> again = pool.Checkout(plan, kInf);
  ASSERT_TRUE(again.ok());
  stats = pool.stats();
  EXPECT_EQ(stats.reuses, 1u);
  EXPECT_EQ(stats.creations, 1u);
  EXPECT_EQ(stats.arena_bytes_pooled, plan->plan.arena.arena_bytes);
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

// A returned session goes back to the pool unwiped. Request B on the
// session that just served request A must give the bytes a fresh session
// and the ReferenceExecutor give for B: A's activations (and fused-cell
// scratch) cannot reach B's sinks. The canary pass fills the arena with
// NaNs before every Run, so a kernel that read a byte it had not written
// in the same Run would show up as a NaN in the sinks.
TEST(SessionPool, ReturnedSessionServesTheNextRequestUnwiped) {
  SchedulerService service;
  SessionPool plain_pool;
  SessionPoolOptions canary_options;
  canary_options.session.executor.measure_touched_peak = true;
  SessionPool canary_pool(canary_options);
  for (const graph::Graph& g : CrossRequestGraphs()) {
    const auto plan = PlanFor(service, g);
    ASSERT_NE(plan, nullptr) << g.name();
    const graph::Graph& scheduled = plan->result.scheduled_graph;
    const std::vector<runtime::Tensor> inputs_a =
        serenity::testing::RandomInputsFor(scheduled, 1);
    const std::vector<runtime::Tensor> inputs_b =
        serenity::testing::RandomInputsFor(scheduled, 2);

    InferenceSession fresh(plan);
    fresh.Run(inputs_b);
    const std::vector<runtime::Tensor> fresh_sinks =
        fresh.executor().SinkValues();
    runtime::ReferenceExecutor reference(scheduled);
    reference.Run(inputs_b, plan->plan.schedule);
    const std::vector<runtime::Tensor> reference_sinks =
        reference.SinkValues();

    for (SessionPool* pool : {&plain_pool, &canary_pool}) {
      const bool canary = pool == &canary_pool;
      const std::string label =
          g.name() + (canary ? " (canary fill)" : " (no fill)");
      const std::uint64_t reuses = pool->stats().reuses;
      {
        util::StatusOr<SessionPool::Lease> lease = pool->Checkout(plan, kInf);
        ASSERT_TRUE(lease.ok()) << label;
        (*lease)->Run(inputs_a);
      }
      util::StatusOr<SessionPool::Lease> lease = pool->Checkout(plan, kInf);
      ASSERT_TRUE(lease.ok()) << label;
      ASSERT_EQ(pool->stats().reuses, reuses + 1) << label;
      (*lease)->Run(inputs_b);
      const std::vector<runtime::Tensor> pooled =
          (*lease)->executor().SinkValues();
      if (canary) {
        EXPECT_EQ((*lease)->executor().touched_peak_bytes(),
                  plan->plan.arena.arena_bytes)
            << label;
      }
      EXPECT_TRUE(SameSinkBytes(pooled, fresh_sinks))
          << label << ": reused session differs from a fresh one";
      EXPECT_TRUE(SameSinkBytes(pooled, reference_sinks))
          << label << ": reused session differs from the reference";
    }
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
// alloc_counter.h), they die with the plan's last pooled session, and a
// new CachedPlan under the same hash (an upgrade, whose scheduled graph may
// number its nodes differently) never borrows them.
TEST(SessionPool, SessionsOfOnePlanShareOneWeightCopy) {
  if (!serenity::testing::ByteTrackingAvailable()) {
    GTEST_SKIP() << "heap byte tracking needs malloc_usable_size";
  }
  using serenity::testing::ThreadAllocationCount;
  using serenity::testing::ThreadLiveBytes;
  SchedulerService service;
  const auto plan = PlanFor(service, models::MakeRandWireCifar100CellC());
  // DARTS's arena is larger than four of Cell C's: checking it out evicts
  // every idle Cell C session.
  const auto big = PlanFor(service, models::MakeDartsNormalCell());
  ASSERT_TRUE(plan != nullptr && big != nullptr);
  const graph::Graph& scheduled = plan->result.scheduled_graph;
  ASSERT_GT(big->plan.arena.arena_bytes, 4 * plan->plan.arena.arena_bytes);
  std::int64_t weight_bytes = 0;
  std::uint64_t weight_allocs = 0;
  {
    const std::int64_t bytes_before = ThreadLiveBytes();
    const std::uint64_t allocs_before = ThreadAllocationCount();
    const auto weights = runtime::MaterializeGraphWeights(scheduled);
    weight_bytes = ThreadLiveBytes() - bytes_before;
    weight_allocs = ThreadAllocationCount() - allocs_before;
  }
  ASSERT_GT(weight_bytes, 1 << 20);  // about 1.35 MB

  SessionPoolOptions options;
  options.max_total_arena_bytes = big->plan.arena.arena_bytes;
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
    EXPECT_EQ(pool.stats().creations, 4u);
    for (SessionPool::Lease& lease : leases) {
      EXPECT_TRUE(RunsLikeTheReference(lease.session(), inputs));
    }
  }

  // Evicting every Cell C session frees the weights with the last one...
  {
    util::StatusOr<SessionPool::Lease> lease = pool.Checkout(big, kInf);
    ASSERT_TRUE(lease.ok()) << lease.status().ToString();
    EXPECT_EQ(pool.stats().evictions, 4u);
    EXPECT_TRUE(first_weights.expired());
  }
  // ... so the next checkout builds them again. (Its byte growth is masked
  // by evicting DARTS to make room; the allocations are not.)
  const std::uint64_t allocs_before = ThreadAllocationCount();
  util::StatusOr<SessionPool::Lease> rebuilt = pool.Checkout(plan, kInf);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_GE(ThreadAllocationCount() - allocs_before,
            shared_creation_allocs + weight_allocs);
  EXPECT_EQ(pool.stats().creations, 6u);
  EXPECT_TRUE(RunsLikeTheReference(rebuilt->session(), inputs));

  // An upgrade maps the same hash to a new CachedPlan over a relabeled twin
  // graph: node ids differ, so Cell C's live weights must not be lent.
  util::Rng rng(29);
  const graph::Graph twin = serenity::testing::RelabelIsomorphic(
      models::MakeRandWireCifar100CellC(), rng, "twin");
  ASSERT_EQ(graph::CanonicalGraphHash(twin), plan->hash);
  auto upgraded = std::make_shared<CachedPlan>(*plan);
  upgraded->result = core::Pipeline().Run(twin);
  ASSERT_TRUE(upgraded->result.status.ok());
  upgraded->plan = serialize::MakePlan(upgraded->result.scheduled_graph,
                                       upgraded->result.schedule);
  util::StatusOr<SessionPool::Lease> on_upgrade =
      pool.Checkout(upgraded, kInf);
  ASSERT_TRUE(on_upgrade.ok()) << on_upgrade.status().ToString();
  EXPECT_EQ(pool.stats().creations, 7u);
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
  // The old plan's leased session comes back and is destroyed.
  *old_leased = SessionPool::Lease();
  const SessionPoolStats stats = pool.stats();
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.sessions_idle, 1u);
  EXPECT_EQ(stats.arena_bytes_pooled, upgraded->plan.arena.arena_bytes);
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
  // Room for the larger arena alone, never both.
  options.max_total_arena_bytes =
      std::max(plan_a->plan.arena.arena_bytes, plan_b->plan.arena.arena_bytes);
  SessionPool pool(options);

  { auto lease = pool.Checkout(plan_a, kInf); ASSERT_TRUE(lease.ok()); }
  EXPECT_EQ(pool.stats().sessions_idle, 1u);

  // Checking out plan B cannot fit next to A's idle session: A is evicted.
  util::StatusOr<SessionPool::Lease> lease_b = pool.Checkout(plan_b, kInf);
  ASSERT_TRUE(lease_b.ok()) << lease_b.status().ToString();
  const SessionPoolStats stats = pool.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.creations, 2u);
  EXPECT_EQ(stats.arena_bytes_pooled, plan_b->plan.arena.arena_bytes);
}

TEST(SessionPool, PlanLargerThanCapShedsImmediately) {
  SchedulerService service;
  const auto plan = PlanFor(service, models::MakeSwiftNetCellA());
  SessionPoolOptions options;
  options.max_total_arena_bytes = 1;
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
// (alloc_counter.h) and the count must not move.
TEST(SessionPool, SteadyStateCheckoutInferReturnIsZeroAlloc) {
  SchedulerService service;
  SessionPool pool;
  const auto plan = PlanFor(service, models::MakeSwiftNetCellA());
  const std::vector<runtime::Tensor> inputs = serenity::testing::RandomInputsFor(
      plan->result.scheduled_graph, 42);

  // Warm-up: builds the session (allocates) and returns it to the pool.
  {
    util::StatusOr<SessionPool::Lease> lease = pool.Checkout(plan, kInf);
    ASSERT_TRUE(lease.ok());
    (*lease)->Run(inputs);
  }
  ASSERT_EQ(pool.stats().sessions_idle, 1u);

  const std::uint64_t before = serenity::testing::ThreadAllocationCount();
  for (int i = 0; i < 16; ++i) {
    util::StatusOr<SessionPool::Lease> lease = pool.Checkout(plan, kInf);
    (*lease)->Run(inputs);
  }
  const std::uint64_t after = serenity::testing::ThreadAllocationCount();
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " heap allocations leaked into the hot path";
  EXPECT_EQ(pool.stats().reuses, 16u);
}

}  // namespace
}  // namespace serenity::serve
