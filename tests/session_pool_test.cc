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

#include "models/random_cell.h"
#include "models/randwire.h"
#include "models/swiftnet.h"
#include "models/zoo.h"
#include "runtime/executor.h"
#include "serve/scheduler_service.h"
#include "testing/alloc_counter.h"
#include "testing/fault_injection.h"
#include "testing/runtime_inputs.h"
#include "testing/sink_compare.h"
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
