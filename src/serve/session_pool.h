// SessionPool: bounded, per-plan pools of InferenceSessions for concurrent
// serving, and the activation blocks they run in.
//
// The serving invariant (ROADMAP "network front end"): concurrent requests
// for the same structural graph share one immutable CachedPlan, and each
// in-flight request needs activation memory of its own. That memory belongs
// to the lease, not to the session, so it is sized to what runs at once,
// not to what is cached (the single managed arena of Liberis & Lane):
//
//   * Blocks follow concurrency. The pool owns its activation blocks
//     (runtime::ArenaBlock: a plan's arena followed by its fused-cell
//     scratch) and keeps the free ones on a LIFO list. A checkout binds its
//     session to a free block by rebasing the session's views — pointer
//     arithmetic, no allocation, and nothing at all when the block is the
//     one the session ran in last. A block is built only when every block
//     is leased, so their number grows to the peak number of concurrent
//     leases. A free block smaller than a plan needs is grown on the cold
//     path, to the largest need seen so far when the cap has room for it
//     (so any block then serves any plan), else to the plan's own need.
//     Any block that large serves any plan: a certified plan writes every
//     value before it reads it.
//   * Per cached plan, up to max_sessions_per_plan sessions are kept; a
//     returned session is reused by the next checkout (zero-heap-alloc on
//     the reuse path — pop, bind, infer, push all run inside preallocated
//     storage, proven by tests/session_pool_test.cc's operator-new count).
//     A session holds its plan, its views and its weights, and no
//     activation memory.
//   * The sessions of one CachedPlan share one copy of its immutable
//     weights: only the first creation materializes them, and they die
//     with the plan's last pooled session.
//   * A checkout always runs the CachedPlan it is given. Once an upgrade
//     has replaced a hash's plan, the old plan's idle sessions are
//     destroyed at the next checkout, and its leased ones when returned.
//   * The pooled bytes — every block, idle or leased, plus each pooled
//     weight copy — never exceed max_pooled_bytes. A plan's weight copy is
//     charged at its measured size: the first one built is charged once it
//     exists, later ones up front. Making room for a block or a weight copy
//     evicts idle sessions of other plans, least recently used first (which
//     frees a plan's weights with its last session), then free blocks.
//     Leased blocks are never reclaimable.
//   * A checkout that cannot be satisfied immediately waits — bounded by
//     the caller's deadline — for a return. Deadline-aware fail-fast: with
//     no budget left (timeout_seconds <= 0) or a plan whose block and
//     weights alone can never fit the cap, the checkout is shed with
//     kResourceExhausted instead of queueing (DESIGN.md "Overload policy":
//     shedding beats unbounded queues).
//
// Thread-safe throughout; leases are RAII (a dropped lease returns its
// session and its block, even on error paths). A returned block is not
// wiped: the next Run writes every value before reading it (DESIGN.md
// "Overload policy"; pinned by tests/session_pool_test.cc).
#ifndef SERENITY_SERVE_SESSION_POOL_H_
#define SERENITY_SERVE_SESSION_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "runtime/arena_executor.h"
#include "serve/inference_session.h"
#include "util/cancel_token.h"
#include "util/memory_budget.h"
#include "util/status.h"

namespace serenity::serve {

struct SessionPoolOptions {
  // Hard cap on the bytes the pool keeps alive: its activation blocks
  // (idle + leased) plus one weight copy per plan with pooled sessions.
  std::int64_t max_pooled_bytes = 512ll << 20;
  // Cap on concurrent sessions (idle + leased) per cached plan.
  int max_sessions_per_plan = 4;
  // Optional governor ledger (typically a child of the server-wide
  // budget), charged the same bytes the cap counts: a block's when it is
  // built or grown, a plan's weight copy's when it is first materialized.
  // Weights are refunded when the plan's last session dies, blocks when
  // the pool does, so pooled memory and planning memory share one global
  // cap. A denied charge is treated like a saturated pool — the checkout
  // waits for capacity or sheds. nullptr = only max_pooled_bytes governs.
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
  std::uint64_t budget_denials = 0;   // charges refused by arena_budget
  // Sessions destroyed to make room or because an upgrade superseded
  // their plan.
  std::uint64_t evictions = 0;
  std::uint64_t sessions_idle = 0;
  std::uint64_t sessions_leased = 0;
  std::uint64_t blocks = 0;             // activation blocks, idle + leased
  std::int64_t block_bytes = 0;         // ... and their bytes
  std::int64_t arena_bytes_pooled = 0;  // the pooled activation memory:
                                        // block_bytes
  std::int64_t pooled_bytes = 0;  // block_bytes + pooled weight copies:
                                  // what max_pooled_bytes caps
};

class SessionPool {
 public:
  explicit SessionPool(SessionPoolOptions options = {});
  // All leases must be returned before destruction (programming error
  // otherwise — a live lease would dangle).
  ~SessionPool();

  SessionPool(const SessionPool&) = delete;
  SessionPool& operator=(const SessionPool&) = delete;

  // RAII checkout of a session bound to a block: returns both, as the last
  // Run left them, to the pool on destruction.
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
    Lease(SessionPool* pool, std::unique_ptr<InferenceSession> session,
          std::unique_ptr<runtime::ArenaBlock> block)
        : pool_(pool), session_(std::move(session)), block_(std::move(block)) {}

    SessionPool* pool_ = nullptr;
    std::unique_ptr<InferenceSession> session_;
    std::unique_ptr<runtime::ArenaBlock> block_;  // the session is bound to it
  };

  // Checks out a session over `plan`, waiting up to timeout_seconds
  // (infinity = as long as it takes; <= 0 = fail fast, never queue) for
  // capacity when the pool is saturated. Sheds with kResourceExhausted on
  // cap/timeout (retryable: capacity returns when leases do); construction
  // failures surface as InferenceSession::Create's Status. A non-null
  // `cancel` token makes a saturated wait abandonable: it is polled in
  // bounded slices (~50 ms), and a fired token fails the checkout with
  // kCancelled instead of holding the connection worker until timeout
  // (drain and client disconnect both route through here). A block that
  // cannot be built or grown (std::bad_alloc, real or injected at
  // testing::FaultPoint::kArenaAllocation) sheds with kResourceExhausted
  // and leaves the pooled bytes and arena_budget as they were.
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
    // What `plan` needs: block floats and the bytes of one weight copy,
    // measured from the first copy built for it (0 until then).
    std::size_t block_floats = 0;
    std::int64_t weight_bytes = 0;
    // Recency hook for cross-plan eviction of idle sessions.
    std::list<graph::GraphHash>::iterator lru_pos;
    bool in_lru = false;
  };

  // The cold path of a checkout whose bytes are charged: builds or grows
  // `block` to `grown_floats` when `block_charge` > 0, then builds the
  // session on it (null `session`) or binds the idle one. A plan's first
  // weight copy is charged here once measured, unless `weight_charge`
  // already covered it. Runs unlocked and returns with `lock` held; on
  // failure it undoes the charges and puts back what it took, and when
  // only the measured copy's charge was refused it returns an invalid
  // Lease, for the checkout to try again.
  util::StatusOr<Lease> BuildLease(
      std::unique_lock<std::mutex>& lock, PlanPool& pool,
      const std::shared_ptr<const CachedPlan>& plan,
      std::unique_ptr<InferenceSession> session,
      std::unique_ptr<runtime::ArenaBlock> block, std::size_t grown_floats,
      std::int64_t block_charge, std::int64_t weight_charge);
  void Return(std::unique_ptr<InferenceSession> session,
              std::unique_ptr<runtime::ArenaBlock> block);
  // Assumes mu_ held: pools `session` as idle, or destroys it when an
  // upgrade has superseded its plan.
  void ShelveLocked(std::unique_ptr<InferenceSession> session);
  // Assumes mu_ held: destroys `session`, refunding its weights' bytes when
  // it held their last reference, and counts it as an eviction.
  void DestroyLocked(PlanPool& pool,
                     std::unique_ptr<InferenceSession> session);
  // Assumes mu_ held: drops one reference to a pooled weight copy,
  // refunding its bytes to the cap and to arena_budget when it was the
  // last. Every reference the pool hands out is taken and dropped under
  // mu_, so the count it reads is exact.
  void DropWeightsLocked(
      std::shared_ptr<const runtime::GraphWeights>& weights);
  // Assumes mu_ held: charges `bytes` to the cap, evicting idle sessions of
  // plans other than `keep` to make room, and to arena_budget. Returns
  // false, with nothing charged, when either refuses.
  bool ChargeLocked(const graph::GraphHash& keep, std::int64_t bytes);
  void RefundLocked(std::int64_t bytes);
  // Assumes mu_ held: destroys idle sessions of *other* plans (least
  // recently used first), then free blocks (least recently returned
  // first), until `needed` bytes fit under the cap or nothing idle
  // remains. Returns true when the bytes now fit.
  bool EvictIdleForLocked(const graph::GraphHash& keep,
                          std::int64_t needed);
  void TouchLocked(const graph::GraphHash& hash, PlanPool& pool);

  const SessionPoolOptions options_;

  mutable std::mutex mu_;
  std::condition_variable returned_;
  std::unordered_map<graph::GraphHash, PlanPool, graph::GraphHashHasher>
      pools_;
  std::list<graph::GraphHash> idle_lru_;  // front = least recently touched
  // Free blocks, most recently returned last; its capacity covers every
  // block, so a return never allocates.
  std::vector<std::unique_ptr<runtime::ArenaBlock>> free_blocks_;
  std::uint64_t blocks_ = 0;        // idle + leased (+ being built)
  std::int64_t block_bytes_ = 0;
  std::size_t block_floats_ = 0;    // the largest block built or grown:
                                    // the size new blocks prefer
  std::int64_t pooled_bytes_ = 0;   // block_bytes_ + pooled weight copies
  std::uint64_t leased_ = 0;
  SessionPoolStats counters_;
};

}  // namespace serenity::serve

#endif  // SERENITY_SERVE_SESSION_POOL_H_
