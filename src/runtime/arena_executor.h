// Plan-driven arena executor: run inference out of the planned arena.
//
// The artifact SERENITY produces — serialize::ExecutionPlan = a memory-aware
// node order plus an ArenaPlan offset for every activation buffer — is
// exactly what a microcontroller runtime consumes (Liberis & Lane 2019 frame
// the same pair as the thing the device executes). This executor closes that
// loop: it preallocates ONE arena block of plan.arena.arena_bytes, binds a
// non-owning Tensor view per activation buffer at its planned
// [offset, offset + size) placement, and then executes the plan's order with
// ZERO per-inference heap allocation.
//
// Outside the arena an executor holds only what one inference needs:
//   * Weights: one immutable per-graph copy (runtime/weights.h), read
//     through a shared_ptr — like a flashed model's weight segment. By
//     default the executor materializes its own; a caller that already built
//     them for the same graph passes them in, which is how the pooled
//     sessions of one plan share one copy (serve/session_pool.h).
//   * Fused-cell scratch: ONE pre-depthwise sum store and ONE depthwise
//     store, each sized to the largest over the graph's kFusedCell nodes.
//     The fused nodes run one at a time, so each runs on views of exactly
//     its shapes at the start of the stores (bounds checks stay exact), and
//     fully writes each view before reading it.
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
//     arena with a canary and afterwards reports the highest byte actually
//     overwritten — making "measured peak == planned arena_bytes" a tested
//     invariant instead of a claim.
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

class ArenaExecutor {
 public:
  // `graph` must outlive the executor; `plan` is copied. Dies if the plan
  // does not validate against the graph (see header comment). `weights`, if
  // given, must have been materialized for `graph` (MaterializeGraphWeights);
  // null materializes a private copy.
  ArenaExecutor(const graph::Graph& graph,
                const serialize::ExecutionPlan& plan,
                ArenaExecutorOptions options = {},
                std::shared_ptr<const GraphWeights> weights = nullptr);

  ArenaExecutor(const ArenaExecutor&) = delete;
  ArenaExecutor& operator=(const ArenaExecutor&) = delete;

  // Executes the plan's schedule. `inputs` correspond to the graph's kInput
  // nodes in ascending node-id order. Performs no heap allocation. Every
  // value is written before it is read within the Run, so whatever an
  // earlier Run left in the arena cannot reach this Run's sinks.
  void Run(const std::vector<Tensor>& inputs);

  // Zero-allocation access to the sink values, in ascending node-id order:
  // views into the arena, valid until the next Run.
  const std::vector<const Tensor*>& SinkViews() const { return sink_views_; }

  // Allocating conveniences for tests and comparisons (owning copies).
  Tensor Value(graph::NodeId id) const;
  std::vector<Tensor> SinkValues() const;

  const serialize::ExecutionPlan& plan() const { return plan_; }
  std::int64_t arena_bytes() const { return plan_.arena.arena_bytes; }

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
  void Execute(const graph::Node& node);

  const graph::Graph& graph_;
  serialize::ExecutionPlan plan_;
  ArenaExecutorOptions options_;
  const KernelBackend* kernels_;  // resolved once at construction

  // The single preallocated activation block. The vector carries slack so
  // arena_base_ can start at a 64-byte boundary regardless of what the
  // allocator returned; all views bind relative to arena_base_.
  std::vector<float> arena_;
  float* arena_base_ = nullptr;
  std::size_t arena_floats_ = 0;  // floats addressable from arena_base_
  // Per buffer: view over the buffer's full placement (widest value shape);
  // default-constructed for buffers no node uses.
  std::vector<Tensor> buffer_views_;
  // Per node: view of the node's *value* — the buffer view itself, or a
  // channel window into it for values living inside a shared buffer.
  std::vector<Tensor> value_views_;
  std::vector<std::vector<const Tensor*>> input_views_;  // per node
  std::shared_ptr<const GraphWeights> weights_;  // indexed by node id
  // kFusedCell scratch shared by every fused node (outside the arena, like
  // the weights): the pre-depthwise accumulator and the depthwise output,
  // each as large as the largest one any fused node needs.
  std::vector<float> fused_sum_store_;
  std::vector<float> fused_dw_store_;
  std::vector<int> input_ordinal_;  // per node; -1 unless kInput
  std::vector<const Tensor*> sink_views_;
  std::size_t num_graph_inputs_ = 0;
  std::int64_t touched_peak_bytes_ = -1;
};

}  // namespace serenity::runtime

#endif  // SERENITY_RUNTIME_ARENA_EXECUTOR_H_
