// SchedulerService: a long-lived scheduler-as-a-service front end.
//
// The serve-path contract (DESIGN.md "Serve path"): callers hand in graphs,
// the service hands back immutable CachedPlan snapshots. Three paths, in
// decreasing frequency under real traffic:
//
//   1. Cache hit — the canonical hash is already in the PlanCache; the plan
//      is returned immediately on the caller's thread, O(hash + lookup).
//   2. Coalesced — another request for the same structural graph is being
//      planned right now; the caller attaches to that request's future
//      instead of planning again (single-flight: one Pipeline::Run per
//      distinct graph no matter how many concurrent requesters).
//   3. Planned — the graph is enqueued to a worker pool; a worker runs the
//      full Pipeline on its own thread, inserts the plan into the cache,
//      and fulfills every attached future. A plan does not depend on which
//      worker made it.
//
// Batching: ScheduleBatch submits a whole request batch up front — so
// distinct graphs plan concurrently across the pool while duplicates
// coalesce — then gathers the results in request order.
//
// Fault tolerance (DESIGN.md "Failure taxonomy"):
//
//   * Requests carry a soft deadline. When the exact search cannot finish
//     in time the worker degrades down the ladder (beam, then greedy —
//     always feasible), tags the plan with its PlanQuality tier, and serves
//     it; with degradation disallowed the caller gets a clean
//     kDeadlineExceeded Status instead. Workers never abort on a failed
//     planning run — every outcome is a Status.
//   * Degraded cache entries are upgraded in place: one background re-plan
//     (no deadline) replaces the entry with the exact plan when it lands.
//     A failed re-plan is counted and not retried; the degraded entry keeps
//     serving. Requests arriving meanwhile are served the degraded entry
//     from cache — upgrades never block the hot path.
//   * A worker-thread exception (injected or real) fails that one request
//     with kInternal and the worker survives.
//
// Persistence rides on the cache: cache().SaveToFile / LoadFromFile give a
// restarted service a warm start (see examples/serenity_serve.cpp); the
// cache file is written atomically and checksummed per entry.
#ifndef SERENITY_SERVE_SCHEDULER_SERVICE_H_
#define SERENITY_SERVE_SCHEDULER_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/pipeline.h"
#include "graph/canonical_hash.h"
#include "serve/plan_cache.h"
#include "util/cancel_token.h"
#include "util/memory_budget.h"
#include "util/status.h"

namespace serenity::serve {

struct ServeOptions {
  core::PipelineOptions pipeline;    // how misses are planned
  int num_workers = 1;               // planning threads in the pool
  // Background upgrade of degraded cache entries: one re-plan without a
  // deadline replaces the entry with the exact plan. A failed attempt is
  // not retried.
  bool upgrade_degraded_plans = true;
  // Byte budget governing every planning run's search memory (DP levels,
  // beam levels, arena-planner working set) across the whole worker pool;
  // typically a child of the server-wide governor. Exhaustion mid-search
  // rides the degradation ladder like a blown deadline (greedy always
  // fits); requests that cannot even degrade fail kResourceExhausted.
  // nullptr = ungoverned.
  util::MemoryBudget* planning_budget = nullptr;
  // Admission lower-bound shed: > 0 enables it. Every schedule of a graph
  // must pass through a step at least as large as the graph's widest
  // minimum step footprint (graph::BufferUseTable::PeakFloorBytes), so
  // a graph whose floor exceeds this cap provably cannot fit no matter how
  // well it is scheduled — it is shed at Submit with kResourceExhausted
  // *before* any planning memory is spent. Wire it to the session-arena
  // budget limit so unservable graphs never reach the planner.
  std::int64_t admission_floor_budget_bytes = 0;
};

// Per-request serving knobs.
struct RequestOptions {
  // Soft wall-clock budget from submission to plan (seconds; infinity =
  // none). Queue wait counts against it.
  double deadline_seconds = std::numeric_limits<double>::infinity();
  // On deadline expiry: true = serve a degraded (beam/greedy) plan tagged
  // with its PlanQuality; false = fail with kDeadlineExceeded.
  bool allow_degraded = true;
  // Cooperative cancellation: when this token fires (client disconnect,
  // drain) the request's interest in the planning run lapses. Because
  // planning is single-flight, the run itself is cancelled only when
  // *every* attached waiter has cancelled — a requester without a token
  // pins the flight to completion. A cancelled run fails its waiters with
  // kCancelled; an identical resubmission replans from scratch and, by the
  // determinism contract, lands bit-identical to the uncancelled run.
  std::shared_ptr<util::CancelToken> cancel;
};

struct ServeResult {
  graph::GraphHash hash;
  // The served plan; nullptr iff planning failed (status says why).
  std::shared_ptr<const CachedPlan> plan;
  bool cache_hit = false;   // path 1: served from cache, no wait
  bool coalesced = false;   // path 2: waited on another request's planning
  // OK whenever `plan` is non-null; otherwise the planning run's own
  // PipelineResult::status, or the service's: kDeadlineExceeded when the
  // deadline expired before planning started, kResourceExhausted for an
  // admission shed or a governed cache insert the budget refused, kInternal
  // for worker exceptions. The served plan's degradation metadata lives on
  // the plan (plan->quality, plan->peak_delta_bytes, plan->result).
  util::Status status;
};

// An in-flight submission. `cache_hit`/`coalesced` describe *this*
// submission (the shared future's ServeResult describes the planning run).
struct Submission {
  graph::GraphHash hash;
  std::shared_future<ServeResult> future;
  bool cache_hit = false;
  bool coalesced = false;
};

struct ServiceStats {
  std::uint64_t requests = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t planned = 0;
  std::uint64_t failures = 0;
  // Requests answered with a below-exact plan (deadline degradation).
  std::uint64_t degraded_plans = 0;
  // Background upgrades of degraded cache entries: completed, and failed
  // (the single attempt did not land an exact plan).
  std::uint64_t upgrades = 0;
  std::uint64_t upgrade_failures = 0;
  // Resource-governor outcomes: requests failed kCancelled (every waiter
  // abandoned the flight), requests shed at Submit by the admission lower
  // bound, and requests answered with a degraded plan because the memory
  // budget (not the deadline) cut the exact search.
  std::uint64_t cancelled = 0;
  std::uint64_t admission_sheds = 0;
  std::uint64_t degraded_on_memory = 0;
  PlanCacheStats cache;
};

class SchedulerService {
 public:
  explicit SchedulerService(ServeOptions options = {});
  // Drains the queue (queued requests and upgrades still complete) and
  // joins the pool.
  ~SchedulerService();

  SchedulerService(const SchedulerService&) = delete;
  SchedulerService& operator=(const SchedulerService&) = delete;

  // Hashes `graph` and serves it via the fastest applicable path. The graph
  // is copied only when a planning job must be enqueued. A coalesced
  // submission attaches to the in-flight run and inherits its options.
  Submission Submit(const graph::Graph& graph,
                    const RequestOptions& request = {});

  // Submit + wait, with the per-submission path flags folded in.
  ServeResult Schedule(const graph::Graph& graph,
                       const RequestOptions& request = {});

  // Submits the whole batch, then gathers results in request order.
  std::vector<ServeResult> ScheduleBatch(
      const std::vector<const graph::Graph*>& batch,
      const RequestOptions& request = {});

  ServiceStats stats() const;
  PlanCache& cache() { return cache_; }
  const ServeOptions& options() const { return options_; }

 private:
  using Clock = std::chrono::steady_clock;

  // Cancellation state shared by one single-flight planning run and every
  // waiter attached to it. The run observes `token`; waiters vote through
  // their own RequestOptions::cancel tokens. The flight cancels only when
  // no waiter still wants the result: every token-carrying waiter has
  // fired (live == 0) and nobody attached without a token (pinned == 0).
  struct FlightState {
    util::CancelToken token;
    std::mutex mu;
    int live = 0;    // attached waiters whose token has not fired
    int pinned = 0;  // attached waiters with no token: pin to completion
  };

  struct Flight {
    std::shared_future<ServeResult> future;
    std::shared_ptr<FlightState> state;
  };

  struct Job {
    graph::GraphHash hash;
    graph::Graph graph;
    // Null for background upgrade jobs — nobody waits on those.
    std::shared_ptr<std::promise<ServeResult>> promise;
    RequestOptions request;
    Clock::time_point submitted;
    // Cancellation aggregate for request jobs; null for upgrades (an
    // upgrade has no waiters to lose).
    std::shared_ptr<FlightState> flight;
    bool is_upgrade = false;
  };

  // Registers one waiter's interest in a single-flight planning run. A
  // waiter without a token pins the flight (it can never be cancelled); a
  // waiter with one votes: when its token fires and it was the last
  // uncancelled, unpinned waiter, the flight's own token fires and the
  // planner unwinds at its next poll. The callback holds the FlightState
  // alive, so a token firing after the flight finished is a harmless
  // no-op.
  static void AttachWaiter(const std::shared_ptr<FlightState>& state,
                           const std::shared_ptr<util::CancelToken>& waiter);

  void WorkerLoop();
  void RunRequestJob(Job job);
  void RunUpgradeJob(Job job);
  // Assumes mu_ is held. Enqueues a background exact re-plan for `hash`
  // unless one is already pending/running.
  void EnqueueUpgradeLocked(const graph::GraphHash& hash,
                            const graph::Graph& graph);

  ServeOptions options_;
  PlanCache cache_;

  mutable std::mutex mu_;
  std::condition_variable work_ready_;
  std::deque<Job> queue_;
  std::unordered_map<graph::GraphHash, Flight, graph::GraphHashHasher>
      in_flight_;
  // Hashes with a background upgrade pending or running. Deliberately
  // separate from in_flight_: requests arriving during an upgrade must hit
  // the degraded cache entry, not coalesce onto the slow exact re-plan.
  std::unordered_set<graph::GraphHash, graph::GraphHashHasher> upgrading_;
  ServiceStats counters_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace serenity::serve

#endif  // SERENITY_SERVE_SCHEDULER_SERVICE_H_
