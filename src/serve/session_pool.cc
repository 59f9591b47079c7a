#include "serve/session_pool.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <new>
#include <string>
#include <utility>

#include "runtime/weights.h"
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

std::int64_t BlockBytes(std::size_t floats) {
  return static_cast<std::int64_t>(floats * sizeof(float));
}

}  // namespace

SessionPool::SessionPool(SessionPoolOptions options)
    : options_(std::move(options)) {
  SERENITY_CHECK_GT(options_.max_pooled_bytes, 0);
  SERENITY_CHECK_GT(options_.max_sessions_per_plan, 0);
}

SessionPool::~SessionPool() {
  std::lock_guard<std::mutex> lock(mu_);
  SERENITY_CHECK_EQ(leased_, 0u)
      << "SessionPool destroyed with live leases";
  // Settle the governor ledger: the pool's blocks and sessions die with
  // it, so their bytes go back to the parent budget (which may outlive
  // this pool).
  if (options_.arena_budget != nullptr && pooled_bytes_ > 0) {
    options_.arena_budget->Refund(pooled_bytes_);
  }
}

SessionPool::Lease& SessionPool::Lease::operator=(Lease&& other) noexcept {
  if (this != &other) {
    if (pool_ != nullptr && session_ != nullptr) {
      pool_->Return(std::move(session_), std::move(block_));
    }
    pool_ = other.pool_;
    session_ = std::move(other.session_);
    block_ = std::move(other.block_);
    other.pool_ = nullptr;
  }
  return *this;
}

SessionPool::Lease::~Lease() {
  if (pool_ != nullptr && session_ != nullptr) {
    pool_->Return(std::move(session_), std::move(block_));
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
  while (pooled_bytes_ + needed > options_.max_pooled_bytes &&
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
  // Then free blocks, least recently returned first. A later lease that
  // finds none builds one again, on the cold path.
  while (pooled_bytes_ + needed > options_.max_pooled_bytes &&
         !free_blocks_.empty()) {
    const std::int64_t bytes = free_blocks_.front()->bytes();
    free_blocks_.erase(free_blocks_.begin());  // pure deallocation
    blocks_ -= 1;
    block_bytes_ -= bytes;
    RefundLocked(bytes);
  }
  return pooled_bytes_ + needed <= options_.max_pooled_bytes;
}

bool SessionPool::ChargeLocked(const graph::GraphHash& keep,
                               std::int64_t bytes) {
  if (bytes == 0) return true;
  if (!EvictIdleForLocked(keep, bytes)) return false;
  if (options_.arena_budget != nullptr &&
      !options_.arena_budget->TryCharge(bytes)) {
    counters_.budget_denials += 1;
    return false;
  }
  pooled_bytes_ += bytes;
  return true;
}

void SessionPool::RefundLocked(std::int64_t bytes) {
  if (bytes == 0) return;
  pooled_bytes_ -= bytes;
  if (options_.arena_budget != nullptr) options_.arena_budget->Refund(bytes);
}

void SessionPool::DropWeightsLocked(
    std::shared_ptr<const runtime::GraphWeights>& weights) {
  if (weights != nullptr && weights.use_count() == 1) {
    RefundLocked(runtime::GraphWeightBytes(*weights));
  }
  weights.reset();
}

void SessionPool::DestroyLocked(PlanPool& pool,
                                std::unique_ptr<InferenceSession> session) {
  pool.live -= 1;
  std::shared_ptr<const runtime::GraphWeights> weights =
      session->executor().weights();
  session.reset();  // pure deallocation, safe under the lock
  DropWeightsLocked(weights);
  counters_.evictions += 1;
}

void SessionPool::ShelveLocked(std::unique_ptr<InferenceSession> session) {
  auto pools_it = pools_.find(session->plan().hash);
  SERENITY_CHECK(pools_it != pools_.end())
      << "returned a session the pool never issued";
  PlanPool& pool = pools_it->second;
  if (pool.plan.lock().get() != &session->plan()) {
    DestroyLocked(pool, std::move(session));  // its plan was superseded
    return;
  }
  SERENITY_CHECK_LT(pool.idle.size(), pool.idle.capacity())
      << "more returns than issued leases";
  pool.idle.push_back(std::move(session));
  TouchLocked(pools_it->first, pool);
}

util::StatusOr<SessionPool::Lease> SessionPool::Checkout(
    std::shared_ptr<const CachedPlan> plan, double timeout_seconds,
    const util::CancelToken* cancel) {
  if (plan == nullptr) {
    return util::InvalidArgumentError("checkout requires a plan");
  }
  if (testing::FaultTriggered(testing::FaultPoint::kSessionCheckout)) {
    std::lock_guard<std::mutex> lock(mu_);
    counters_.sheds += 1;
    return ShedStatus("injected pooled-arena exhaustion");
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
    // 1. The pool holds sessions of one plan; when an upgrade has replaced
    //    it (or a stale caller asks for the old one back, possibly while
    //    this checkout waited), rebind: no idle session of another plan may
    //    serve this request.
    if (pool.plan.lock() != plan) {
      while (!pool.idle.empty()) {
        std::unique_ptr<InferenceSession> stale = std::move(pool.idle.back());
        pool.idle.pop_back();
        DestroyLocked(pool, std::move(stale));
      }
      const graph::Graph& graph = plan->result.scheduled_graph;
      pool.plan = plan;
      pool.weights.reset();
      pool.block_floats =
          runtime::ArenaExecutor::BlockFloats(graph, plan->plan);
      pool.weight_bytes = 0;  // measured from the first copy built
      returned_.notify_all();  // the refunded bytes may unblock a waiter
    }
    if (BlockBytes(pool.block_floats) + pool.weight_bytes >
        options_.max_pooled_bytes) {
      // This plan's block and weights alone can never fit under the cap:
      // fail fast, a wait could not help.
      counters_.sheds += 1;
      return ShedStatus("plan block and weights exceed the pool byte cap");
    }

    // 2. A session of this plan: an idle one, or room under the per-plan
    //    cap to build one.
    const bool reuse = !pool.idle.empty();
    if (reuse || pool.live < options_.max_sessions_per_plan) {
      // 3. A block: the most recently returned free one that fits; else
      //    the top free one, grown; else a new one. It leaves the free list
      //    before anything is charged, so making room never frees it. A
      //    block is built or grown to the largest need seen so far, so that
      //    it then serves any plan, unless the cap has no room for that
      //    without evicting: then to this plan's need. The block and the
      //    weight copy a first session needs (once its size is known) are
      //    charged now, so concurrent checkouts see the bytes as taken; the
      //    governor ledger is charged last, and its refusal (planning holds
      //    the global budget) is a saturation signal like any other.
      const std::size_t need = pool.block_floats;
      std::unique_ptr<runtime::ArenaBlock> block;
      if (!free_blocks_.empty()) {
        std::size_t take = free_blocks_.size() - 1;
        for (std::size_t i = free_blocks_.size(); i-- > 0;) {
          if (free_blocks_[i]->floats() >= need) {
            take = i;
            break;
          }
        }
        std::swap(free_blocks_[take], free_blocks_.back());
        block = std::move(free_blocks_.back());
        free_blocks_.pop_back();
      }
      const std::int64_t weight_charge =
          !reuse && pool.weights.expired() ? pool.weight_bytes : 0;
      std::size_t grown_floats = 0;
      std::int64_t block_charge = 0;
      if (block == nullptr || block->floats() < need) {
        const std::int64_t have = block == nullptr ? 0 : block->bytes();
        grown_floats = std::max(block_floats_, need);
        if (pooled_bytes_ + BlockBytes(grown_floats) - have + weight_charge >
            options_.max_pooled_bytes) {
          grown_floats = need;
        }
        block_charge = BlockBytes(grown_floats) - have;
      }
      if (!ChargeLocked(plan->hash, block_charge + weight_charge)) {
        if (block != nullptr) free_blocks_.push_back(std::move(block));
      } else {
        if (block == nullptr) {
          blocks_ += 1;
          free_blocks_.reserve(blocks_);  // every block can come back
        }
        block_bytes_ += block_charge;
        block_floats_ = std::max(block_floats_, grown_floats);
        std::unique_ptr<InferenceSession> session;
        if (reuse) {
          session = std::move(pool.idle.back());
          pool.idle.pop_back();
        } else {
          pool.live += 1;
        }
        if (block_charge > 0 || session == nullptr) {
          util::StatusOr<Lease> lease = BuildLease(
              lock, pool, plan, std::move(session), std::move(block),
              grown_floats, block_charge, weight_charge);
          if (!lease.ok() || lease->valid()) return lease;
          // The plan's first weight copy, measured once built, did not
          // fit: try again, now charging it up front.
          continue;
        }
        // The steady state: an idle session on a free block that fits.
        leased_ += 1;
        counters_.checkouts += 1;
        counters_.reuses += 1;
        lock.unlock();
        session->executor().Bind(*block);
        return Lease(this, std::move(session), std::move(block));
      }
    }

    // 4. Saturated: shed or wait for a return, bounded by the deadline and
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

util::StatusOr<SessionPool::Lease> SessionPool::BuildLease(
    std::unique_lock<std::mutex>& lock, PlanPool& pool,
    const std::shared_ptr<const CachedPlan>& plan,
    std::unique_ptr<InferenceSession> session,
    std::unique_ptr<runtime::ArenaBlock> block, std::size_t grown_floats,
    std::int64_t block_charge, std::int64_t weight_charge) {
  const bool reuse = session != nullptr;
  // A first session materializes the weights; a later one shares the live
  // copy.
  std::shared_ptr<const runtime::GraphWeights> weights;
  if (!reuse) weights = pool.weights.lock();
  const bool first_copy = !reuse && weights == nullptr;
  const std::size_t need = pool.block_floats;

  // Allocation, weight materialization and session construction are the
  // expensive part: run them outside the lock, on what this checkout owns.
  lock.unlock();
  util::Status built;
  try {
    if (block == nullptr) {
      block = std::make_unique<runtime::ArenaBlock>(grown_floats);
    } else if (block_charge > 0) {
      *block = runtime::ArenaBlock(grown_floats);  // unchanged if it throws
    }
    if (reuse) {
      session->executor().Bind(*block);
    } else {
      if (first_copy) {
        weights =
            runtime::MaterializeGraphWeights(plan->result.scheduled_graph);
      }
      session = std::make_unique<InferenceSession>(plan, options_.session,
                                                   weights, block.get());
    }
  } catch (const std::bad_alloc&) {
    built = util::ResourceExhaustedError(
        "activation block allocation failed building the pooled session");
  } catch (const std::exception& e) {
    built = util::InternalError(
        std::string("building the pooled session threw: ") + e.what());
  }
  lock.lock();

  // The plan's first copy is measured, and charged now unless its size was
  // known (and charged) up front.
  bool refused = false;
  if (built.ok() && first_copy) {
    const std::int64_t bytes = runtime::GraphWeightBytes(*weights);
    if (pool.plan.lock() == plan) pool.weight_bytes = bytes;
    if (weight_charge == 0) {
      refused = !ChargeLocked(plan->hash, bytes);
      if (!refused) weight_charge = bytes;
    }
  }

  if (!built.ok() || refused) {
    // A block this checkout only borrowed, or failed to grow, goes back as
    // it was. One it built or grew goes, all its bytes refunded: it was
    // sized before the weights were, and a retry sizes it anew.
    if (block_charge > 0 && (block == nullptr || block->floats() >= need)) {
      const std::int64_t bytes =
          block == nullptr ? block_charge : block->bytes();
      block.reset();  // pure deallocation
      blocks_ -= 1;
      block_bytes_ -= bytes;
      RefundLocked(bytes);
    } else {
      if (block_charge > 0) {
        block_bytes_ -= block_charge;
        RefundLocked(block_charge);
      }
      free_blocks_.push_back(std::move(block));
    }
    if (reuse) {
      ShelveLocked(std::move(session));
    } else {
      pool.live -= 1;
      session.reset();
      if (first_copy && weight_charge == 0) {
        weights.reset();  // never charged
      } else if (weights == nullptr) {
        RefundLocked(weight_charge);  // charged, never built
      }
    }
    DropWeightsLocked(weights);
    returned_.notify_all();  // the undone bytes may unblock a waiter
    if (refused) return Lease();
    counters_.sheds += 1;
    return built;
  }
  // A concurrent checkout may have rebound the pool, or registered its own
  // first copy, meanwhile.
  if (first_copy && pool.plan.lock() == plan && pool.weights.expired()) {
    pool.weights = weights;
  }
  weights.reset();  // the session holds its own reference
  leased_ += 1;
  counters_.checkouts += 1;
  (reuse ? counters_.reuses : counters_.creations) += 1;
  return Lease(this, std::move(session), std::move(block));
}

void SessionPool::Return(std::unique_ptr<InferenceSession> session,
                         std::unique_ptr<runtime::ArenaBlock> block) {
  // No wipe: the next Run in this block, of whichever plan, writes every
  // value before reading it, so the previous request's activations cannot
  // reach the next request's sinks.
  std::lock_guard<std::mutex> lock(mu_);
  ShelveLocked(std::move(session));
  SERENITY_CHECK_LT(free_blocks_.size(), free_blocks_.capacity())
      << "more blocks returned than built";
  free_blocks_.push_back(std::move(block));
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
  out.blocks = blocks_;
  out.block_bytes = block_bytes_;
  out.arena_bytes_pooled = block_bytes_;
  out.pooled_bytes = pooled_bytes_;
  return out;
}

}  // namespace serenity::serve
