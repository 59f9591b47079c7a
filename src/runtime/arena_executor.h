// Plan-driven arena executor: run inference out of the planned arena.
//
// The artifact SERENITY produces — serialize::ExecutionPlan = a memory-aware
// node order plus an ArenaPlan offset for every activation buffer — is
// exactly what a microcontroller runtime consumes (Liberis & Lane 2019 frame
// the same pair as the thing the device executes). This executor closes that
// loop: it binds a non-owning Tensor view per activation buffer at its
// planned [offset, offset + size) placement inside ONE activation block,
// and then executes the plan's order with ZERO per-inference heap
// allocation.
//
// The activation block (ArenaBlock) is the executor's only mutable memory:
// the planned arena [0, arena_bytes) followed by the fused-cell scratch —
// ONE pre-depthwise sum store and ONE depthwise store, each sized to the
// largest over the graph's kFusedCell nodes. The fused nodes run one at a
// time, so each runs on views of exactly its shapes at the start of the
// stores (bounds checks stay exact), and fully writes each view before
// reading it. A standalone executor allocates a block of its own. A caller
// that runs many executors, few at a time, owns the blocks instead and
// lends one per Run: Bind moves every view onto another block by pointer
// arithmetic, with no allocation. That is how serve::SessionPool keeps one
// block per in-flight lease rather than one per pooled session — any block
// of at least block_floats() floats serves, whatever plan ran in it last,
// because a certified plan writes every value before it reads it.
//
// Weights are the other input a Run reads: one immutable per-graph copy
// (runtime/weights.h), read through a shared_ptr — like a flashed model's
// weight segment. By default the executor materializes its own; a caller
// that already built them for the same graph passes them in, which is how
// the pooled sessions of one plan share one copy (serve/session_pool.h).
//
// Certification, not trust (DESIGN.md "Plan-driven execution"):
//   * Construction statically verifies the plan against the graph: the
//     schedule is a topological order, placements are pairwise
//     non-overlapping in (lifetime x address), every used buffer has a
//     placement of exactly its byte size, and every producer/consumer step
//     falls inside its buffer's planned lifetime — a corrupt plan dies
//     before it can execute.
//   * Every element access is bounds-checked against the view's backing
//     span (runtime/tensor.h), so no live tensor can escape its placement.
//   * With ArenaExecutorOptions::measure_touched_peak, Run() pre-fills the
//     arena (not the scratch after it) with a canary and afterwards reports
//     the highest byte actually overwritten — making "measured peak ==
//     planned arena_bytes" a tested invariant instead of a claim.
//
// Sink outputs are bit-identical to the ReferenceExecutor's: both drive the
// same kernels (runtime/kernels.h) on the same materialized weights in the
// same operand order (pinned by tests/arena_executor_property_test.cc).
#ifndef SERENITY_RUNTIME_ARENA_EXECUTOR_H_
#define SERENITY_RUNTIME_ARENA_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/graph.h"
#include "runtime/kernel_backend.h"
#include "runtime/tensor.h"
#include "runtime/weights.h"
#include "serialize/plan.h"

namespace serenity::runtime {

struct ArenaExecutorOptions {
  // Canary-fill the arena before each Run and scan afterwards for the
  // highest byte written. Costs two linear passes over the arena per
  // inference (still allocation-free); leave off on the hot path.
  bool measure_touched_peak = false;

  // Kernel backend to execute with (runtime/kernel_backend.h). Resolved
  // exactly once, at construction: kAuto picks the fastest backend available
  // on this machine, and an unavailable ISA backend degrades to kBlocked.
  // Any backend produces bit-identical sink values (the parity suite pins
  // this), so serving defaults to the fast path.
  Backend backend = Backend::kAuto;
};

// One activation block: a 64-byte-aligned run of zeroed floats holding a
// plan's arena at [0, arena_floats) and its fused-cell scratch after it.
// Moving a block keeps its base; growing one means building a larger block.
class ArenaBlock {
 public:
  ArenaBlock() = default;
  // Throws std::bad_alloc when the allocation fails, real or injected
  // (testing::FaultPoint::kArenaAllocation), so callers map exhaustion to
  // kResourceExhausted end to end.
  explicit ArenaBlock(std::size_t floats);

  float* base() const { return base_; }
  std::size_t floats() const { return floats_; }
  std::int64_t bytes() const {
    return static_cast<std::int64_t>(floats_ * sizeof(float));
  }

 private:
  // One allocation, over-sized by a cache line of slack so base_ can start
  // at a 64-byte boundary regardless of what the allocator returned.
  std::vector<float> storage_;
  float* base_ = nullptr;
  std::size_t floats_ = 0;
};

class ArenaExecutor {
 public:
  // `graph` must outlive the executor; `plan` is copied. Dies if the plan
  // does not validate against the graph (see header comment). `weights`, if
  // given, must have been materialized for `graph` (MaterializeGraphWeights);
  // null materializes a private copy. `block`, if given, is owned by the
  // caller: the executor binds to it, allocating no activation memory, and
  // it must hold at least BlockFloats(graph, plan) floats and stay alive for
  // every Run until the next Bind. Null allocates a block of the executor's
  // own (block_floats() floats).
  ArenaExecutor(const graph::Graph& graph,
                const serialize::ExecutionPlan& plan,
                ArenaExecutorOptions options = {},
                std::shared_ptr<const GraphWeights> weights = nullptr,
                ArenaBlock* block = nullptr);

  ArenaExecutor(const ArenaExecutor&) = delete;
  ArenaExecutor& operator=(const ArenaExecutor&) = delete;

  // Floats of activation block an executor over (graph, plan) binds: the
  // planned arena followed by the fused-cell scratch.
  static std::size_t BlockFloats(const graph::Graph& graph,
                                 const serialize::ExecutionPlan& plan);

  // Moves every view onto `block` (at least block_floats() floats): pointer
  // arithmetic only, and nothing at all when already bound there. Contents
  // do not move with the views, and need not: Run writes every value before
  // it reads it.
  void Bind(ArenaBlock& block);

  // Executes the plan's schedule. `inputs` correspond to the graph's kInput
  // nodes in ascending node-id order. Performs no heap allocation. Every
  // value is written before it is read within the Run, so whatever an
  // earlier Run left in the block cannot reach this Run's sinks.
  void Run(const std::vector<Tensor>& inputs);

  // Zero-allocation access to the sink values, in ascending node-id order:
  // views into the block, valid until the next Run or Bind.
  const std::vector<const Tensor*>& SinkViews() const { return sink_views_; }

  // Allocating conveniences for tests and comparisons (owning copies).
  Tensor Value(graph::NodeId id) const;
  std::vector<Tensor> SinkValues() const;

  const serialize::ExecutionPlan& plan() const { return plan_; }
  std::int64_t arena_bytes() const { return plan_.arena.arena_bytes; }
  std::size_t block_floats() const {
    return arena_floats_ + fused_sum_floats_ + fused_dw_floats_;
  }

  // The backend options.backend resolved to at construction (never kAuto).
  Backend backend() const { return kernels_->id; }

  // The weights this executor reads, possibly shared with other executors.
  const std::shared_ptr<const GraphWeights>& weights() const {
    return weights_;
  }

  // Highest arena byte overwritten by the last Run, or -1 when the last Run
  // did not measure (options.measure_touched_peak off or no Run yet). When
  // every planned placement is actually written this equals arena_bytes.
  std::int64_t touched_peak_bytes() const { return touched_peak_bytes_; }

 private:
  // Points base_ and the scratch stores at `block`.
  void BindBase(ArenaBlock& block);
  void Execute(const graph::Node& node);

  const graph::Graph& graph_;
  serialize::ExecutionPlan plan_;
  ArenaExecutorOptions options_;
  const KernelBackend* kernels_;  // resolved once at construction

  // Empty unless the executor was built standalone.
  ArenaBlock own_block_;
  // The bound block: the arena at base_[0, arena_floats_), then the
  // kFusedCell scratch shared by every fused node — the pre-depthwise
  // accumulator and the depthwise output, each as large as the largest one
  // any fused node needs.
  float* base_ = nullptr;
  float* fused_sum_ = nullptr;  // base_ + arena_floats_
  float* fused_dw_ = nullptr;   // fused_sum_ + fused_sum_floats_
  std::size_t arena_floats_ = 0;
  std::size_t fused_sum_floats_ = 0;
  std::size_t fused_dw_floats_ = 0;
  // Per buffer: view over the buffer's full placement (widest value shape);
  // default-constructed for buffers no node uses.
  std::vector<Tensor> buffer_views_;
  // Per node: view of the node's *value* — the buffer view itself, or a
  // channel window into it for values living inside a shared buffer.
  std::vector<Tensor> value_views_;
  std::vector<std::vector<const Tensor*>> input_views_;  // per node
  std::shared_ptr<const GraphWeights> weights_;  // indexed by node id
  std::vector<int> input_ordinal_;  // per node; -1 unless kInput
  std::vector<const Tensor*> sink_views_;
  std::size_t num_graph_inputs_ = 0;
  std::int64_t touched_peak_bytes_ = -1;
};

}  // namespace serenity::runtime

#endif  // SERENITY_RUNTIME_ARENA_EXECUTOR_H_
