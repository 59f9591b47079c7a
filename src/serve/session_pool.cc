#include "serve/session_pool.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "testing/fault_injection.h"
#include "util/logging.h"

namespace serenity::serve {
namespace {

using Clock = std::chrono::steady_clock;

// Saturated waits sleep in slices this long so a fired cancel token is
// noticed promptly even though nothing signals the condition variable; a
// wait without a token just re-checks the pool once per slice.
constexpr std::chrono::milliseconds kCancelPollSlice{50};

util::Status ShedStatus(const char* why) {
  return util::ResourceExhaustedError(
      std::string("session checkout shed: ") + why);
}

}  // namespace

SessionPool::SessionPool(SessionPoolOptions options)
    : options_(std::move(options)) {
  SERENITY_CHECK_GT(options_.max_total_arena_bytes, 0);
  SERENITY_CHECK_GT(options_.max_sessions_per_plan, 0);
}

SessionPool::~SessionPool() {
  std::lock_guard<std::mutex> lock(mu_);
  SERENITY_CHECK_EQ(leased_, 0u)
      << "SessionPool destroyed with live leases";
  // Settle the governor ledger: the pool's sessions die with it, so their
  // bytes go back to the parent budget (which may outlive this pool).
  if (options_.arena_budget != nullptr && arena_bytes_pooled_ > 0) {
    options_.arena_budget->Refund(arena_bytes_pooled_);
  }
}

SessionPool::Lease& SessionPool::Lease::operator=(Lease&& other) noexcept {
  if (this != &other) {
    if (pool_ != nullptr && session_ != nullptr) {
      pool_->Return(std::move(session_));
    }
    pool_ = other.pool_;
    session_ = std::move(other.session_);
    other.pool_ = nullptr;
  }
  return *this;
}

SessionPool::Lease::~Lease() {
  if (pool_ != nullptr && session_ != nullptr) {
    pool_->Return(std::move(session_));
  }
}

void SessionPool::TouchLocked(const graph::GraphHash& hash, PlanPool& pool) {
  // Most recently touched moves to the back; EvictIdleForLocked scans from
  // the front. splice reuses the list node — no allocation on this path.
  if (pool.in_lru) {
    idle_lru_.splice(idle_lru_.end(), idle_lru_, pool.lru_pos);
  } else {
    pool.lru_pos = idle_lru_.insert(idle_lru_.end(), hash);
    pool.in_lru = true;
  }
}

bool SessionPool::EvictIdleForLocked(const graph::GraphHash& keep,
                                     std::int64_t needed) {
  auto it = idle_lru_.begin();
  while (arena_bytes_pooled_ + needed > options_.max_total_arena_bytes &&
         it != idle_lru_.end()) {
    if (*it == keep) {
      ++it;
      continue;
    }
    auto pools_it = pools_.find(*it);
    SERENITY_CHECK(pools_it != pools_.end());
    PlanPool& victim = pools_it->second;
    if (victim.idle.empty()) {
      ++it;
      continue;
    }
    std::unique_ptr<InferenceSession> evicted =
        std::move(victim.idle.back());
    victim.idle.pop_back();
    DestroyLocked(victim, std::move(evicted));
    if (victim.idle.empty()) {
      // Keep the LRU node (re-insertion on the next return would allocate);
      // just advance past it. Empty entries are skipped above.
      ++it;
    }
  }
  return arena_bytes_pooled_ + needed <= options_.max_total_arena_bytes;
}

void SessionPool::DestroyLocked(PlanPool& pool,
                                std::unique_ptr<InferenceSession> session) {
  pool.live -= 1;
  arena_bytes_pooled_ -= session->arena_bytes();
  if (options_.arena_budget != nullptr) {
    options_.arena_budget->Refund(session->arena_bytes());
  }
  counters_.evictions += 1;
  // `session` destructs here: pure deallocation, safe under the lock.
}

util::StatusOr<SessionPool::Lease> SessionPool::Checkout(
    std::shared_ptr<const CachedPlan> plan, double timeout_seconds,
    const util::CancelToken* cancel) {
  if (plan == nullptr) {
    return util::InvalidArgumentError("checkout requires a plan");
  }
  const std::int64_t need = plan->plan.arena.arena_bytes;
  if (testing::FaultTriggered(testing::FaultPoint::kSessionCheckout)) {
    std::lock_guard<std::mutex> lock(mu_);
    counters_.sheds += 1;
    return ShedStatus("injected pooled-arena exhaustion");
  }
  if (need > options_.max_total_arena_bytes) {
    // This plan's single arena can never fit under the cap: fail fast, a
    // wait could not help.
    std::lock_guard<std::mutex> lock(mu_);
    counters_.sheds += 1;
    return ShedStatus("plan arena exceeds the pool byte cap");
  }

  const bool fail_fast = timeout_seconds <= 0;
  const Clock::time_point deadline =
      std::isinf(timeout_seconds)
          ? Clock::time_point::max()
          : Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(timeout_seconds));

  std::unique_lock<std::mutex> lock(mu_);
  auto [pools_it, inserted] = pools_.try_emplace(plan->hash);
  PlanPool& pool = pools_it->second;
  if (inserted) {
    // One-time reservation so the steady-state return push_back (and the
    // checkout pop_back) never touch the allocator.
    pool.idle.reserve(static_cast<std::size_t>(options_.max_sessions_per_plan));
  }

  bool counted_wait = false;
  while (true) {
    // 1. Reuse an idle session of this plan. The pool holds sessions of one
    //    plan; when an upgrade has replaced it (or a stale caller asks for
    //    the old one back, possibly while this checkout waited), rebind:
    //    no idle session of another plan may serve this request.
    if (pool.plan.lock() != plan) {
      while (!pool.idle.empty()) {
        std::unique_ptr<InferenceSession> stale = std::move(pool.idle.back());
        pool.idle.pop_back();
        DestroyLocked(pool, std::move(stale));
      }
      pool.plan = plan;
      pool.weights.reset();
      returned_.notify_all();  // the refunded bytes may unblock a waiter
    }
    if (!pool.idle.empty()) {
      std::unique_ptr<InferenceSession> session = std::move(pool.idle.back());
      pool.idle.pop_back();
      leased_ += 1;
      counters_.checkouts += 1;
      counters_.reuses += 1;
      return Lease(this, std::move(session));
    }

    // 2. Build a new session if both caps allow (evicting other plans' idle
    //    sessions to make byte room). The governor ledger is charged last:
    //    a refusal there (planning holds the global budget) is a
    //    saturation signal like any other, so the checkout waits or sheds
    //    rather than overrunning the server-wide cap.
    if (pool.live < options_.max_sessions_per_plan &&
        EvictIdleForLocked(plan->hash, need)) {
      const bool charged =
          options_.arena_budget == nullptr ||
          options_.arena_budget->TryCharge(need);
      if (!charged) {
        counters_.budget_denials += 1;
      } else {
        // Account first so concurrent checkouts see the bytes as taken,
        // then construct outside the lock (arena allocation + weight
        // materialization are the expensive part). A live session of this
        // plan lends its weights; otherwise Create materializes them.
        pool.live += 1;
        arena_bytes_pooled_ += need;
        std::shared_ptr<const runtime::GraphWeights> weights =
            pool.weights.lock();
        lock.unlock();
        util::StatusOr<InferenceSession> session =
            InferenceSession::Create(plan, options_.session, weights);
        lock.lock();
        if (!session.ok()) {
          pool.live -= 1;
          arena_bytes_pooled_ -= need;
          if (options_.arena_budget != nullptr) {
            options_.arena_budget->Refund(need);
          }
          counters_.sheds += 1;
          returned_.notify_all();  // the undone bytes may unblock a waiter
          return session.status();
        }
        // A concurrent checkout may have rebound the pool meanwhile.
        if (weights == nullptr && pool.plan.lock() == plan) {
          pool.weights = session->executor().weights();
        }
        leased_ += 1;
        counters_.checkouts += 1;
        counters_.creations += 1;
        return Lease(this,
                     std::make_unique<InferenceSession>(std::move(*session)));
      }
    }

    // 3. Saturated: shed or wait for a return, bounded by the deadline and
    //    abandonable via the cancel token (polled once per slice — nothing
    //    signals the condition variable when a peer disconnects or a drain
    //    begins).
    if (cancel != nullptr && cancel->cancelled()) {
      counters_.cancelled_waits += 1;
      return util::CancelledError("session checkout cancelled");
    }
    if (fail_fast) {
      counters_.sheds += 1;
      return ShedStatus("pool saturated and the request had no wait budget");
    }
    const Clock::time_point now = Clock::now();
    if (now >= deadline) {
      counters_.sheds += 1;
      return ShedStatus("pool saturated past the request deadline");
    }
    if (!counted_wait) {
      counters_.waits += 1;
      counted_wait = true;
    }
    returned_.wait_until(lock, std::min(deadline, now + kCancelPollSlice));
  }
}

void SessionPool::Return(std::unique_ptr<InferenceSession> session) {
  // No wipe: the next Run writes every value before reading it, so the
  // previous request's activations cannot reach the next request's sinks.
  std::lock_guard<std::mutex> lock(mu_);
  auto pools_it = pools_.find(session->plan().hash);
  SERENITY_CHECK(pools_it != pools_.end())
      << "returned a session the pool never issued";
  PlanPool& pool = pools_it->second;
  if (pool.plan.lock().get() != &session->plan()) {
    DestroyLocked(pool, std::move(session));  // its plan was superseded
  } else {
    SERENITY_CHECK_LT(pool.idle.size(), pool.idle.capacity())
        << "more returns than issued leases";
    pool.idle.push_back(std::move(session));
    TouchLocked(pools_it->first, pool);
  }
  SERENITY_CHECK_GT(leased_, 0u);
  leased_ -= 1;
  counters_.returns += 1;
  returned_.notify_all();
}

SessionPoolStats SessionPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  SessionPoolStats out = counters_;
  out.sessions_leased = leased_;
  std::uint64_t idle = 0;
  for (const auto& [hash, pool] : pools_) idle += pool.idle.size();
  out.sessions_idle = idle;
  out.arena_bytes_pooled = arena_bytes_pooled_;
  return out;
}

}  // namespace serenity::serve
