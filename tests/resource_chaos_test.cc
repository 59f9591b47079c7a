// Resource-governance chaos: 1000 seeded runs, each driving one governor
// fault — an injected budget denial, an injected cancellation poll, a real
// byte budget too small for the exact search, or a real request-level
// cancel — through the serving flow. The contract (DESIGN.md "Resource
// governance"): every fault yields either a correct (possibly degraded)
// plan or a clean util::Status, never an abort; whenever a plan IS
// returned it validates and its inference sinks are bit-identical to the
// reference executor; and a cancel-then-retry serves a plan bit-identical
// (same plan text bytes) to a never-cancelled baseline.
//
// A separate case cross-checks the advisory ledger against reality:
// operator-new accounting (tests/testing/alloc_counter.h) bounds a
// sequential DP run's peak live bytes by what the ledger claims, within
// the documented slack.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "alloc/arena_planner.h"
#include "core/dp_scheduler.h"
#include "core/pipeline.h"
#include "graph/canonical_hash.h"
#include "models/random_cell.h"
#include "runtime/executor.h"
#include "serve/inference_session.h"
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

namespace ftest = serenity::testing;

models::RandomCellParams ChaosCell(int seed) {
  models::RandomCellParams p;
  p.seed = static_cast<std::uint64_t>(seed) * 2246822519u + 3;
  p.num_intermediates = 3 + seed % 5;
  p.concat_branches = (seed % 3 == 0) ? 0 : 2;
  p.depthwise_block = seed % 2 == 0;
  p.num_cells = 1;
  p.spatial = 4;
  p.channels = 3 + seed % 4;
  p.name = "resource_chaos_cell";
  return p;
}

ServeOptions GovernedOptions(util::MemoryBudget* budget) {
  ServeOptions options;
  options.num_workers = 1;
  options.upgrade_degraded_plans = false;
  options.planning_budget = budget;
  return options;
}

// Every plan a governed run returns must pass the full correctness gate:
// structural validation, then sinks bit-identical to the reference
// executor replaying the same schedule.
void ExpectPlanCorrect(const std::shared_ptr<const CachedPlan>& plan,
                       int seed) {
  ASSERT_NE(plan, nullptr);
  const std::vector<std::string> problems = alloc::ValidatePlanForGraph(
      plan->plan.arena, plan->result.scheduled_graph, plan->plan.schedule);
  ASSERT_TRUE(problems.empty())
      << "seed " << seed << ": " << problems.front();
  util::StatusOr<InferenceSession> session = InferenceSession::Create(plan);
  ASSERT_TRUE(session.ok())
      << "seed " << seed << ": " << session.status().ToString();
  const std::vector<runtime::Tensor> inputs = ftest::RandomInputsFor(
      session.value().graph(), 7000 + static_cast<std::uint64_t>(seed));
  session.value().Run(inputs);
  runtime::ReferenceExecutor reference(session.value().graph());
  reference.Run(inputs, plan->plan.schedule);
  ASSERT_EQ(ftest::DescribeSinkDivergence(
                session.value().executor().SinkValues(),
                reference.SinkValues()),
            "")
      << "seed " << seed;
}

// Fault 0: the Nth budget charge is denied (countdown injection) inside a
// generously-governed planning run. The request is served a degraded plan
// (the greedy floor is ungoverned, so degradation always has somewhere to
// land) or — when the denial hits the final arena-planning charge, or
// degradation is disallowed — fails with a clean kResourceExhausted. The
// budget ledger must drain back to zero either way, and a retry with the
// fault cleared serves an exact, correct plan.
void RunBudgetDenialChaos(int seed, const graph::Graph& g) {
  util::MemoryBudget budget(std::int64_t{1} << 30);
  SchedulerService service(GovernedOptions(&budget));
  RequestOptions request;
  request.allow_degraded = seed % 8 != 7;
  {
    ftest::ScopedFault fault(ftest::FaultPoint::kBudgetDenial,
                             static_cast<std::uint64_t>(seed % 24));
    const ServeResult r = service.Schedule(g, request);
    if (r.plan != nullptr) {
      ExpectPlanCorrect(r.plan, seed);
      if (r.plan->quality != core::PlanQuality::kExact) {
        EXPECT_EQ(r.plan->result.degrade_reason, core::DegradeReason::kMemory)
            << "seed " << seed;
      }
    } else {
      EXPECT_EQ(r.status.code(), util::StatusCode::kResourceExhausted)
          << "seed " << seed << ": " << r.status.ToString();
    }
  }
  const ServeResult retry = service.Schedule(g, request);
  ASSERT_NE(retry.plan, nullptr)
      << "seed " << seed << ": " << retry.status.ToString();
  ExpectPlanCorrect(retry.plan, seed);
  // Transient planning reservations are refunded wholesale; only the
  // ledger's high-water mark remembers the run.
  EXPECT_EQ(budget.used_bytes(), 0) << "seed " << seed;
}

// Fault 1: the DP's cancellation poll fires (countdown injection) on a
// request that carries a cancel token. The request fails kCancelled (or
// completes, when the search beat the armed poll); the retry must land
// bit-identical — same plan text bytes — to a never-cancelled baseline.
void RunCancelPollChaos(int seed, const graph::Graph& g,
                        const std::string& baseline_text) {
  SchedulerService service(GovernedOptions(nullptr));
  RequestOptions request;
  request.cancel = std::make_shared<util::CancelToken>();
  {
    ftest::ScopedFault fault(ftest::FaultPoint::kCancelPoll,
                             static_cast<std::uint64_t>(seed % 16));
    const ServeResult r = service.Schedule(g, request);
    if (r.plan == nullptr) {
      EXPECT_EQ(r.status.code(), util::StatusCode::kCancelled)
          << "seed " << seed << ": " << r.status.ToString();
      EXPECT_GE(service.stats().cancelled, 1u) << "seed " << seed;
    }
  }
  const ServeResult retry = service.Schedule(g, request);
  ASSERT_NE(retry.plan, nullptr)
      << "seed " << seed << ": " << retry.status.ToString();
  EXPECT_EQ(retry.plan->quality, core::PlanQuality::kExact)
      << "seed " << seed;
  EXPECT_EQ(serialize::PlanToText(retry.plan->plan), baseline_text)
      << "seed " << seed;
  ExpectPlanCorrect(retry.plan, seed);
}

// Fault 2: a real budget, sized from generous down to starvation by the
// seed. Degradation allowed: the greedy floor is ungoverned, so the only
// acceptable failure is the final arena-planning charge being refused —
// otherwise a valid plan is served. Either way the ledger drains to zero.
void RunSmallBudgetChaos(int seed, const graph::Graph& g) {
  const std::int64_t limit = std::int64_t{1} << (10 + seed % 12);  // 1K..2M
  util::MemoryBudget budget(limit);
  SchedulerService service(GovernedOptions(&budget));
  const ServeResult r = service.Schedule(g);
  if (r.plan != nullptr) {
    ExpectPlanCorrect(r.plan, seed);
  } else {
    EXPECT_EQ(r.status.code(), util::StatusCode::kResourceExhausted)
        << "seed " << seed << ": " << r.status.ToString();
  }
  EXPECT_EQ(budget.used_bytes(), 0) << "seed " << seed;
  EXPECT_LE(budget.peak_bytes(), limit) << "seed " << seed;
}

// Fault 3: a real request-level cancel — the token fires right after
// submission. Either the planning run loses the race and fails kCancelled,
// or it completes first and serves a plan; both are legal. The retry (no
// token) must serve the exact plan, bit-identical to the baseline: a
// cancel never poisons the cache or perturbs later results.
void RunServiceCancelChaos(int seed, const graph::Graph& g,
                           const std::string& baseline_text) {
  SchedulerService service(GovernedOptions(nullptr));
  RequestOptions request;
  request.cancel = std::make_shared<util::CancelToken>();
  Submission submission = service.Submit(g, request);
  request.cancel->Cancel();
  const ServeResult r = submission.future.get();
  if (r.plan != nullptr) {
    ExpectPlanCorrect(r.plan, seed);
  } else {
    EXPECT_EQ(r.status.code(), util::StatusCode::kCancelled)
        << "seed " << seed << ": " << r.status.ToString();
  }
  const ServeResult retry = service.Schedule(g);
  ASSERT_NE(retry.plan, nullptr)
      << "seed " << seed << ": " << retry.status.ToString();
  EXPECT_EQ(retry.plan->quality, core::PlanQuality::kExact)
      << "seed " << seed;
  EXPECT_EQ(serialize::PlanToText(retry.plan->plan), baseline_text)
      << "seed " << seed;
  ExpectPlanCorrect(retry.plan, seed);
}

TEST(ResourceChaos, ThousandSeededGovernorFaultsNeverAbort) {
  ftest::FaultInjector::Global().DisarmAll();
  for (int seed = 0; seed < 1000; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const graph::Graph g = models::MakeRandomCellNetwork(ChaosCell(seed));
    // The never-faulted ground truth the cancel categories compare their
    // retries against, byte for byte.
    std::string baseline_text;
    if (seed % 4 == 1 || seed % 4 == 3) {
      SchedulerService baseline(GovernedOptions(nullptr));
      const ServeResult b = baseline.Schedule(g);
      ASSERT_NE(b.plan, nullptr) << b.status.ToString();
      baseline_text = serialize::PlanToText(b.plan->plan);
    }
    switch (seed % 4) {
      case 0:
        RunBudgetDenialChaos(seed, g);
        break;
      case 1:
        RunCancelPollChaos(seed, g, baseline_text);
        break;
      case 2:
        RunSmallBudgetChaos(seed, g);
        break;
      default:
        RunServiceCancelChaos(seed, g, baseline_text);
        break;
    }
    if (HasFatalFailure()) break;
  }
  ftest::FaultInjector::Global().DisarmAll();
}

// The governor's injection points stay wired into the production paths
// even when disarmed.
TEST(ResourceChaos, GovernorInjectionPointsAreTraversedWhenDisarmed) {
  ftest::FaultInjector::Global().DisarmAll();
  ftest::FaultInjector::Global().ResetCounters();
  util::MemoryBudget budget(std::int64_t{1} << 30);
  util::CancelToken token;
  core::DpOptions options;
  options.memory_budget = &budget;
  options.cancel = &token;
  const graph::Graph g = models::MakeRandomCellNetwork(ChaosCell(1));
  const core::DpResult r = core::ScheduleDp(g, options);
  ASSERT_EQ(r.status, core::DpStatus::kSolution);
  ftest::FaultInjector& injector = ftest::FaultInjector::Global();
  EXPECT_GE(injector.traversals(ftest::FaultPoint::kBudgetDenial), 1u);
  EXPECT_GE(injector.traversals(ftest::FaultPoint::kCancelPoll), 1u);
  EXPECT_EQ(injector.fires(ftest::FaultPoint::kBudgetDenial), 0u);
  EXPECT_EQ(budget.used_bytes(), 0);
}

// Cross-check the advisory ledger against the allocator: a
// governed DP run's peak live heap bytes (operator-new accounting, this
// thread only) must stay within the ledger's claimed peak plus the
// documented slack — one vector doubling (bounded by the claimed peak
// itself) plus a fixed epsilon for the check-interval insert window, the
// result object, and allocator rounding. An honest ledger keeps the bound
// `measured <= 2 * claimed + 1 MiB`; a ledger that stopped charging some
// growing structure breaks it as the graph scales.
TEST(ResourceChaos, OperatorNewPeakStaysWithinLedgerPeakPlusSlack) {
  if (!ftest::ByteTrackingAvailable()) {
    GTEST_SKIP() << "malloc_usable_size unavailable on this libc";
  }
  constexpr std::int64_t kSlackBytes = 1 << 20;
  util::Rng rng(4242);
  ftest::RandomDagOptions dag;
  dag.num_ops = 24;
  dag.spatial = 8;
  const graph::Graph g = ftest::RandomDag(rng, dag, "ledger_vs_new");

  util::MemoryBudget budget(std::int64_t{1} << 30);
  core::DpOptions options;
  options.memory_budget = &budget;

  ftest::ResetThreadPeakLiveBytes();
  const std::int64_t live_before = ftest::ThreadLiveBytes();
  const core::DpResult r = core::ScheduleDp(g, options);
  const std::int64_t measured_peak =
      ftest::ThreadPeakLiveBytes() - live_before;
  ASSERT_EQ(r.status, core::DpStatus::kSolution);
  const std::int64_t claimed_peak = budget.peak_bytes();
  ASSERT_GT(claimed_peak, 0);
  EXPECT_LE(measured_peak, 2 * claimed_peak + kSlackBytes)
      << "ledger claims " << claimed_peak << " peak bytes but operator new "
      << "saw " << measured_peak << " live at peak";
  EXPECT_EQ(budget.used_bytes(), 0);

  // And under a starvation budget the run must abort cleanly without ever
  // allocating past budget + slack: the denial arrives before the growth.
  const std::int64_t starved_limit = claimed_peak / 4;
  util::MemoryBudget starved(starved_limit);
  core::DpOptions governed = options;
  governed.memory_budget = &starved;
  ftest::ResetThreadPeakLiveBytes();
  const std::int64_t live_before2 = ftest::ThreadLiveBytes();
  const core::DpResult denied = core::ScheduleDp(g, governed);
  const std::int64_t measured_peak2 =
      ftest::ThreadPeakLiveBytes() - live_before2;
  EXPECT_EQ(denied.status, core::DpStatus::kResourceExhausted);
  EXPECT_LE(measured_peak2, 2 * starved_limit + kSlackBytes);
  EXPECT_EQ(starved.used_bytes(), 0);
}

}  // namespace
}  // namespace serenity::serve
