// InferenceSession: the last hop of the serve path — from a served plan to
// numbers.
//
// SchedulerService hands back immutable CachedPlan snapshots (schedule +
// arena placements); this class binds one to a per-session
// runtime::ArenaExecutor, so a caller goes graph -> plan (cold, coalesced
// or warm from the persisted cache) -> inference after inference out of
// one preallocated activation block, with zero per-inference heap
// allocation. The expensive memory-aware search runs once per structural
// graph, and every inference after that executes the cached artifact
// directly.
//
// The arena belongs to whoever lends the block, not to the session. A
// session keeps its certified plan, its views and its weights (immutable,
// so sessions of one CachedPlan may share them); its only mutable memory is
// the block it is bound to. A session built here owns a block of its own;
// a SessionPool lease lends one of the pool's blocks for the lease's
// duration. Either way one session runs on one thread at a time, and
// sessions on different blocks run in parallel.
#ifndef SERENITY_SERVE_INFERENCE_SESSION_H_
#define SERENITY_SERVE_INFERENCE_SESSION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/arena_executor.h"
#include "serve/scheduler_service.h"
#include "util/status.h"

namespace serenity::serve {

struct InferenceSessionOptions {
  runtime::ArenaExecutorOptions executor;
};

class InferenceSession {
 public:
  // Builds a session over a served plan. Dies if `plan` is null; keeps the
  // plan (and the scheduled graph inside it) alive for the session's life.
  // `weights`, if given, must have been materialized for this plan's
  // scheduled graph (sessions of one plan may share them); null
  // materializes a private copy. `block`, if given, is owned by the caller
  // (a SessionPool) and holds at least runtime::ArenaExecutor::BlockFloats
  // of the plan; null builds a block of the session's own.
  explicit InferenceSession(
      std::shared_ptr<const CachedPlan> plan,
      InferenceSessionOptions options = {},
      std::shared_ptr<const runtime::GraphWeights> weights = nullptr,
      runtime::ArenaBlock* block = nullptr);

  // Schedules `graph` through `service` — cache hit, coalesced, or a fresh
  // planning run — and opens a session over the result. Dies if planning
  // failed (a serving caller that wants to degrade gracefully calls
  // service.Schedule itself, checks the ServeResult, then uses Create).
  static InferenceSession Open(SchedulerService& service,
                               const graph::Graph& graph,
                               InferenceSessionOptions options = {});

  // Status-returning construction for serving callers (DESIGN.md "Failure
  // taxonomy"): a null plan is kInvalidArgument; executor construction
  // failure maps std::bad_alloc (block exhaustion — real or injected) to
  // kResourceExhausted and any other exception to kInternal. Never aborts
  // on environment-caused failure.
  static util::StatusOr<InferenceSession> Create(
      std::shared_ptr<const CachedPlan> plan,
      InferenceSessionOptions options = {},
      std::shared_ptr<const runtime::GraphWeights> weights = nullptr);

  InferenceSession(InferenceSession&&) = default;
  InferenceSession& operator=(InferenceSession&&) = default;

  // One inference. `inputs` correspond to the scheduled graph's kInput
  // nodes in ascending node-id order. Zero heap allocations inside.
  void Run(const std::vector<runtime::Tensor>& inputs);

  // The scheduled (possibly rewritten) graph inferences execute against —
  // build inputs and read sinks relative to *this* graph.
  const graph::Graph& graph() const { return plan_->result.scheduled_graph; }
  const CachedPlan& plan() const { return *plan_; }
  const runtime::ArenaExecutor& executor() const { return *executor_; }
  runtime::ArenaExecutor& executor() { return *executor_; }

  std::int64_t arena_bytes() const { return executor_->arena_bytes(); }

 private:
  std::shared_ptr<const CachedPlan> plan_;
  std::unique_ptr<runtime::ArenaExecutor> executor_;
};

}  // namespace serenity::serve

#endif  // SERENITY_SERVE_INFERENCE_SESSION_H_
