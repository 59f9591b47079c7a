// SessionPool: bounded, per-plan pools of InferenceSessions for concurrent
// serving.
//
// The serving invariant (ROADMAP "network front end"): concurrent requests
// for the same structural graph share one immutable CachedPlan but must own
// their arenas — a session's arena is its mutable state. This pool makes
// arena ownership a checkout/return protocol with hard resource bounds:
//
//   * Per cached plan, up to max_sessions_per_plan sessions are kept; a
//     returned session is reused by the next checkout (zero-heap-alloc on
//     the reuse path — pop, infer, push all run inside preallocated
//     storage, proven by tests/session_pool_test.cc's operator-new count).
//   * The sessions of one CachedPlan share one copy of its immutable
//     weights: only the first creation materializes them, and they die
//     with the plan's last pooled session. Each session owns only its arena
//     and its fused-cell scratch.
//   * A checkout always runs the CachedPlan it is given. Once an upgrade
//     has replaced a hash's plan, the old plan's idle sessions are
//     destroyed at the next checkout, and its leased ones when returned.
//   * The total arena bytes across every pooled session (idle and leased)
//     never exceed max_total_arena_bytes. Creating a session for one plan
//     may evict idle sessions of other plans to make room; bytes held by
//     *leased* sessions are never reclaimable.
//   * A checkout that cannot be satisfied immediately waits — bounded by
//     the caller's deadline — for a return. Deadline-aware fail-fast: with
//     no budget left (timeout_seconds <= 0) or a plan whose single arena
//     can never fit the cap, the checkout is shed with kResourceExhausted
//     instead of queueing (DESIGN.md "Overload policy": shedding beats
//     unbounded queues).
//
// Thread-safe throughout; leases are RAII (a dropped lease returns its
// session, even on error paths). A returned session is not wiped: the next
// Run writes every value before reading it (DESIGN.md "Overload policy";
// pinned by tests/session_pool_test.cc).
#ifndef SERENITY_SERVE_SESSION_POOL_H_
#define SERENITY_SERVE_SESSION_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "serve/inference_session.h"
#include "util/cancel_token.h"
#include "util/memory_budget.h"
#include "util/status.h"

namespace serenity::serve {

struct SessionPoolOptions {
  // Hard cap on the summed arena bytes of every session the pool has built
  // and not yet destroyed (idle + leased).
  std::int64_t max_total_arena_bytes = 512ll << 20;
  // Cap on concurrent sessions (idle + leased) per cached plan.
  int max_sessions_per_plan = 4;
  // Optional governor ledger (typically a child of the server-wide
  // budget): each session's arena bytes are charged when the session is
  // built and refunded when it is evicted, so pooled arenas and planning
  // memory share one global cap. A denied charge is treated like a
  // saturated pool — the checkout waits for capacity or sheds. nullptr =
  // only max_total_arena_bytes governs.
  util::MemoryBudget* arena_budget = nullptr;
  InferenceSessionOptions session;
};

struct SessionPoolStats {
  std::uint64_t checkouts = 0;   // successful leases handed out
  std::uint64_t reuses = 0;      // ... served from an idle pooled session
  std::uint64_t creations = 0;   // ... that built a new session
  std::uint64_t returns = 0;     // leases returned to the pool
  std::uint64_t waits = 0;       // checkouts that blocked for a return
  std::uint64_t sheds = 0;       // checkouts failed with kResourceExhausted
  std::uint64_t cancelled_waits = 0;  // waits abandoned via the cancel token
  std::uint64_t budget_denials = 0;   // creations refused by arena_budget
  // Sessions destroyed to make room or because an upgrade superseded
  // their plan.
  std::uint64_t evictions = 0;
  std::uint64_t sessions_idle = 0;
  std::uint64_t sessions_leased = 0;
  std::int64_t arena_bytes_pooled = 0;  // idle + leased
};

class SessionPool {
 public:
  explicit SessionPool(SessionPoolOptions options = {});
  // All leases must be returned before destruction (programming error
  // otherwise — a live lease would dangle).
  ~SessionPool();

  SessionPool(const SessionPool&) = delete;
  SessionPool& operator=(const SessionPool&) = delete;

  // RAII checkout: returns the session, as the last Run left it, to the
  // pool on destruction.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept { *this = std::move(other); }
    Lease& operator=(Lease&& other) noexcept;
    ~Lease();

    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    InferenceSession& session() { return *session_; }
    InferenceSession* operator->() { return session_.get(); }
    bool valid() const { return session_ != nullptr; }

   private:
    friend class SessionPool;
    Lease(SessionPool* pool, std::unique_ptr<InferenceSession> session)
        : pool_(pool), session_(std::move(session)) {}

    SessionPool* pool_ = nullptr;
    std::unique_ptr<InferenceSession> session_;
  };

  // Checks out a session over `plan`, waiting up to timeout_seconds
  // (infinity = as long as it takes; <= 0 = fail fast, never queue) for
  // capacity when the pool is saturated. Sheds with kResourceExhausted on
  // cap/timeout (retryable: capacity returns when leases do); construction
  // failures surface as InferenceSession::Create's Status. A non-null
  // `cancel` token makes a saturated wait abandonable: it is polled in
  // bounded slices (~50 ms), and a fired token fails the checkout with
  // kCancelled instead of holding the connection worker until timeout
  // (drain and client disconnect both route through here).
  util::StatusOr<Lease> Checkout(std::shared_ptr<const CachedPlan> plan,
                                 double timeout_seconds,
                                 const util::CancelToken* cancel = nullptr);

  SessionPoolStats stats() const;
  const SessionPoolOptions& options() const { return options_; }

 private:
  struct PlanPool {
    std::vector<std::unique_ptr<InferenceSession>> idle;
    int live = 0;  // idle + leased sessions built under this hash
    // The one CachedPlan the idle sessions and `weights` belong to, matched
    // by object, not by hash (an upgrade maps the hash to a new CachedPlan,
    // whose scheduled graph may have other node ids). Held weakly, like the
    // weights, which die with the last session reading them.
    std::weak_ptr<const CachedPlan> plan;
    std::weak_ptr<const runtime::GraphWeights> weights;
    // Recency hook for cross-plan eviction of idle sessions.
    std::list<graph::GraphHash>::iterator lru_pos;
    bool in_lru = false;
  };

  void Return(std::unique_ptr<InferenceSession> session);
  // Assumes mu_ held: destroys `session`, refunding its arena bytes to the
  // cap and to arena_budget, and counts it as an eviction.
  void DestroyLocked(PlanPool& pool,
                     std::unique_ptr<InferenceSession> session);
  // Assumes mu_ held: destroys idle sessions of *other* plans (least
  // recently used first) until `needed` bytes fit under the cap or nothing
  // idle remains. Returns true when the bytes now fit.
  bool EvictIdleForLocked(const graph::GraphHash& keep,
                          std::int64_t needed);
  void TouchLocked(const graph::GraphHash& hash, PlanPool& pool);

  const SessionPoolOptions options_;

  mutable std::mutex mu_;
  std::condition_variable returned_;
  std::unordered_map<graph::GraphHash, PlanPool, graph::GraphHashHasher>
      pools_;
  std::list<graph::GraphHash> idle_lru_;  // front = least recently touched
  std::int64_t arena_bytes_pooled_ = 0;
  std::uint64_t leased_ = 0;
  SessionPoolStats counters_;
};

}  // namespace serenity::serve

#endif  // SERENITY_SERVE_SESSION_POOL_H_
