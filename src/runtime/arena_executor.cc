#include "runtime/arena_executor.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <new>
#include <utility>

#include "alloc/arena_planner.h"
#include "sched/schedule.h"
#include "testing/fault_injection.h"
#include "util/logging.h"

namespace serenity::runtime {

namespace {

// A *quiet*-NaN bit pattern (bit 22 set) no kernel computes in practice:
// real outputs are sums/products of finite synthetic weights and inputs.
// Quiet rather than signaling so a platform that canonicalizes sNaNs on FP
// stores cannot silently rewrite the fill and blind the scan; the canary is
// only ever filled and compared bit-wise by the measure_touched_peak
// diagnostic.
constexpr std::uint32_t kCanaryBits = 0x7fe5a5a5u;

// The arena base is aligned up to this many bytes (a cache line, and a
// multiple of every backend's PlacementAlignment), so a placement's
// alignment relative to the plan is its alignment in memory.
constexpr std::size_t kArenaBaseAlign = 64;

// The kFusedCell scratch pair, in floats: each store as large as the
// largest one any fused node of `graph` needs.
struct FusedScratch {
  std::size_t sum_floats = 0;
  std::size_t dw_floats = 0;
};

FusedScratch FusedScratchFor(const graph::Graph& graph) {
  FusedScratch scratch;
  for (const graph::Node& node : graph.nodes()) {
    if (node.kind != graph::OpKind::kFusedCell) continue;
    const graph::TensorShape in_shape = graph.node(node.inputs[0]).shape;
    scratch.sum_floats = std::max(
        scratch.sum_floats, static_cast<std::size_t>(in_shape.NumElements()));
    scratch.dw_floats = std::max(
        scratch.dw_floats,
        static_cast<std::size_t>(
            graph::InferDepthwiseShape(in_shape, node.conv).NumElements()));
  }
  return scratch;
}

}  // namespace

ArenaBlock::ArenaBlock(std::size_t floats) : floats_(floats) {
  // Fault-injection point: arena exhaustion surfaces as the same
  // std::bad_alloc the real allocation below would throw.
  if (testing::FaultTriggered(testing::FaultPoint::kArenaAllocation)) {
    throw std::bad_alloc();
  }
  storage_.assign(floats + kArenaBaseAlign / sizeof(float), 0.0f);
  const std::uintptr_t raw =
      reinterpret_cast<std::uintptr_t>(storage_.data());
  const std::uintptr_t aligned =
      (raw + kArenaBaseAlign - 1) & ~(std::uintptr_t{kArenaBaseAlign} - 1);
  base_ = storage_.data() + (aligned - raw) / sizeof(float);
}

std::size_t ArenaExecutor::BlockFloats(const graph::Graph& graph,
                                       const serialize::ExecutionPlan& plan) {
  const FusedScratch scratch = FusedScratchFor(graph);
  return static_cast<std::size_t>(plan.arena.arena_bytes / sizeof(float)) +
         scratch.sum_floats + scratch.dw_floats;
}

ArenaExecutor::ArenaExecutor(const graph::Graph& graph,
                             const serialize::ExecutionPlan& plan,
                             ArenaExecutorOptions options,
                             std::shared_ptr<const GraphWeights> weights,
                             ArenaBlock* block)
    : graph_(graph),
      plan_(plan),
      options_(options),
      kernels_(&GetKernelBackend(options.backend)),
      weights_(std::move(weights)) {
  const std::size_t num_nodes = static_cast<std::size_t>(graph.num_nodes());
  const std::size_t num_buffers =
      static_cast<std::size_t>(graph.num_buffers());

  // --- Static plan certification: a plan that lies about the graph, about
  // placement geometry, or about lifetimes dies here, before any kernel
  // touches the arena (alloc::ValidatePlanForGraph is the same gauntlet
  // serialize::PlanFromText runs on cache files).
  SERENITY_CHECK_EQ(plan_.schedule.size(), num_nodes)
      << "plan schedules a different node count than the graph";
  SERENITY_CHECK(sched::IsTopologicalOrder(graph_, plan_.schedule))
      << "plan schedule is not a topological order of the graph";
  // Placements must be aligned for the resolved backend's vector loads
  // (sizeof(float) for kReference, 32 B for the blocked/SIMD backends); the
  // planner's 64-byte default satisfies every backend.
  const std::vector<std::string> problems = alloc::ValidatePlanForGraph(
      plan_.arena, graph_, plan_.schedule, PlacementAlignment(kernels_->id));
  SERENITY_CHECK(problems.empty())
      << "invalid execution plan: " << problems.front() << " ("
      << problems.size() << " problem(s))";
  SERENITY_CHECK_EQ(
      plan_.arena.arena_bytes % static_cast<std::int64_t>(sizeof(float)), 0)
      << "arena size is not float-aligned";

  std::vector<const alloc::BufferPlacement*> placement(num_buffers, nullptr);
  for (const alloc::BufferPlacement& p : plan_.arena.placements) {
    placement[static_cast<std::size_t>(p.buffer)] = &p;
  }

  // Shape each buffer after its widest value, exactly like the
  // ReferenceExecutor, so both executors agree on backing layouts.
  std::vector<graph::TensorShape> widest(num_buffers);
  std::vector<std::int64_t> widest_elems(num_buffers, 0);
  for (const graph::Node& node : graph.nodes()) {
    const std::size_t b = static_cast<std::size_t>(node.buffer);
    if (node.shape.NumElements() > widest_elems[b]) {
      widest_elems[b] = node.shape.NumElements();
      widest[b] = node.shape;
    }
  }

  const FusedScratch scratch = FusedScratchFor(graph_);
  arena_floats_ =
      static_cast<std::size_t>(plan_.arena.arena_bytes / sizeof(float));
  fused_sum_floats_ = scratch.sum_floats;
  fused_dw_floats_ = scratch.dw_floats;
  if (block == nullptr) {
    own_block_ = ArenaBlock(block_floats());
    block = &own_block_;
  }
  BindBase(*block);

  // --- Bind one view per used buffer at its planned placement (validated
  // above: present, exact byte size, float-aligned, inside the arena).
  buffer_views_.resize(num_buffers);
  for (std::size_t b = 0; b < num_buffers; ++b) {
    if (widest_elems[b] == 0) continue;  // unused buffer: no placement
    const graph::BufferId id = static_cast<graph::BufferId>(b);
    SERENITY_CHECK_EQ(
        widest_elems[b] * static_cast<std::int64_t>(sizeof(float)),
        graph.buffer(id).size_bytes)
        << "buffer " << b << " size does not match its widest value";
    const alloc::BufferPlacement* p = placement[b];
    buffer_views_[b] = Tensor::View(
        base_ + p->offset / static_cast<std::int64_t>(sizeof(float)),
        static_cast<std::size_t>(widest_elems[b]), widest[b]);
  }

  if (weights_ == nullptr) weights_ = MaterializeGraphWeights(graph_);
  SERENITY_CHECK_EQ(weights_->size(), num_nodes)
      << "weights were materialized for a different graph";

  // --- Per-node bindings: value views, operand pointer lists, and input
  // ordinals.
  value_views_.resize(num_nodes);
  input_views_.resize(num_nodes);
  input_ordinal_.assign(num_nodes, -1);

  for (const graph::Node& node : graph.nodes()) {
    const std::size_t id = static_cast<std::size_t>(node.id);
    const std::size_t b = static_cast<std::size_t>(node.buffer);
    const alloc::BufferPlacement* p = placement[b];

    // The node's value view: the whole buffer, or a channel window of it.
    if (node.shape == widest[b]) {
      value_views_[id] = Tensor::View(
          base_ +
              p->offset / static_cast<std::int64_t>(sizeof(float)),
          static_cast<std::size_t>(widest_elems[b]), node.shape);
    } else {
      SERENITY_CHECK(node.shape.n == widest[b].n &&
                     node.shape.h == widest[b].h &&
                     node.shape.w == widest[b].w)
          << "value of '" << node.name
          << "' is not a channel slice of its buffer";
      value_views_[id] = Tensor::ChannelView(
          base_ +
              p->offset / static_cast<std::int64_t>(sizeof(float)),
          static_cast<std::size_t>(widest_elems[b]), node.shape,
          widest[b].c, node.buffer_channel_offset);
    }

    if (node.kind == graph::OpKind::kInput) {
      input_ordinal_[id] = static_cast<int>(num_graph_inputs_++);
    }
  }
  // Operand pointers are taken only after value_views_ stops reallocating.
  for (const graph::Node& node : graph.nodes()) {
    std::vector<const Tensor*>& operands =
        input_views_[static_cast<std::size_t>(node.id)];
    operands.reserve(node.inputs.size());
    for (const graph::NodeId input : node.inputs) {
      operands.push_back(&value_views_[static_cast<std::size_t>(input)]);
    }
  }
  for (const graph::NodeId sink : graph.Sinks()) {
    sink_views_.push_back(&value_views_[static_cast<std::size_t>(sink)]);
  }
}

void ArenaExecutor::BindBase(ArenaBlock& block) {
  SERENITY_CHECK_GE(block.floats(), block_floats())
      << "activation block is smaller than the plan's arena and scratch";
  base_ = block.base();
  fused_sum_ = base_ + arena_floats_;
  fused_dw_ = fused_sum_ + fused_sum_floats_;
}

void ArenaExecutor::Bind(ArenaBlock& block) {
  const float* const old_base = base_;
  BindBase(block);
  if (base_ == old_base) return;
  for (Tensor& view : buffer_views_) view.Rebase(old_base, base_);
  for (Tensor& view : value_views_) view.Rebase(old_base, base_);
}

void ArenaExecutor::Run(const std::vector<Tensor>& inputs) {
  SERENITY_CHECK_EQ(inputs.size(), num_graph_inputs_)
      << "graph expects a tensor per kInput node";
  touched_peak_bytes_ = -1;
  if (options_.measure_touched_peak) {
    std::fill_n(base_, arena_floats_,
                std::bit_cast<float>(kCanaryBits));
  }
  for (const graph::NodeId id : plan_.schedule) {
    const graph::Node& node = graph_.node(id);
    if (node.kind == graph::OpKind::kInput) {
      const Tensor& provided = inputs[static_cast<std::size_t>(
          input_ordinal_[static_cast<std::size_t>(id)])];
      SERENITY_CHECK(provided.shape() == node.shape)
          << "input tensor shape mismatch for '" << node.name << "'";
      value_views_[static_cast<std::size_t>(id)].CopyFrom(provided);
    } else {
      Execute(node);
    }
  }
  if (options_.measure_touched_peak) {
    std::size_t top = arena_floats_;
    while (top > 0 && std::bit_cast<std::uint32_t>(base_[top - 1]) ==
                          kCanaryBits) {
      --top;
    }
    touched_peak_bytes_ =
        static_cast<std::int64_t>(top * sizeof(float));
  }
}

void ArenaExecutor::Execute(const graph::Node& node) {
  const std::size_t id = static_cast<std::size_t>(node.id);
  Tensor& out = value_views_[id];
  const std::vector<const Tensor*>& in = input_views_[id];
  const NodeWeights& w = (*weights_)[id];
  const KernelBackend& k = *kernels_;

  switch (node.kind) {
    case graph::OpKind::kInput:
      SERENITY_CHECK(false) << "inputs are bound in Run";
      break;
    case graph::OpKind::kConv2d:
      k.Conv2dInto(*in[0], w.conv, node.conv, out);
      break;
    case graph::OpKind::kPartialConv2d:
      k.Conv2dPartial(*in[0], w.conv, node.conv, node.in_channel_offset,
                      /*overwrite=*/true, /*add_bias=*/true, out);
      break;
    case graph::OpKind::kPartialConv2dAccum:
      // Operand layout {accumulator, x_i}: the accumulator is `out` itself
      // (same buffer, same placement), updated in place.
      k.Conv2dPartial(*in[1], w.conv, node.conv, node.in_channel_offset,
                      /*overwrite=*/false, /*add_bias=*/false, out);
      break;
    case graph::OpKind::kDepthwiseConv2d:
      k.DepthwiseConv2dInto(*in[0], w.dw, node.conv, out);
      break;
    case graph::OpKind::kPartialDepthwiseConv2d:
      // Writes channels [buffer_channel_offset, +in.c) of the shared buffer.
      k.DepthwiseConv2dPartial(
          *in[0], w.dw, node.conv, node.in_channel_offset,
          buffer_views_[static_cast<std::size_t>(node.buffer)],
          node.buffer_channel_offset);
      break;
    case graph::OpKind::kConcatView:
      // The partial depthwise writers already populated the shared buffer.
      break;
    case graph::OpKind::kConcat:
      k.ConcatInto(in, out);
      break;
    case graph::OpKind::kAdd:
      k.AddInto(in, out);
      break;
    case graph::OpKind::kMul:
      k.MulInto(in, out);
      break;
    case graph::OpKind::kRelu:
      k.ReluInto(*in[0], out);
      break;
    case graph::OpKind::kBatchNorm:
      k.BatchNormInto(*in[0], w.bn, out);
      break;
    case graph::OpKind::kIdentity:
      out.CopyFrom(*in[0]);
      break;
    case graph::OpKind::kMaxPool2d:
      k.MaxPool2dInto(*in[0], node.conv, out);
      break;
    case graph::OpKind::kAvgPool2d:
      k.AvgPool2dInto(*in[0], node.conv, out);
      break;
    case graph::OpKind::kGlobalAvgPool2d:
      k.GlobalAvgPool2dInto(*in[0], out);
      break;
    case graph::OpKind::kDense:
      k.DenseInto(*in[0], w.dense, out);
      break;
    case graph::OpKind::kFusedCell: {
      // Views of exactly this node's shapes at the start of the shared
      // stores after the arena; each is fully written below before it is
      // read.
      const graph::TensorShape& in_shape = in[0]->shape();
      Tensor sum = Tensor::View(
          fused_sum_,
          static_cast<std::size_t>(in_shape.NumElements()), in_shape);
      if (in.size() == 1) {
        sum.CopyFrom(*in[0]);
      } else {
        k.AddInto(in, sum);
      }
      k.ReluInto(sum, sum);  // elementwise, in place
      const graph::TensorShape dw_shape =
          graph::InferDepthwiseShape(in_shape, node.conv);
      Tensor dw = Tensor::View(
          fused_dw_,
          static_cast<std::size_t>(dw_shape.NumElements()), dw_shape);
      k.DepthwiseConv2dInto(sum, w.dw, node.conv, dw);
      const graph::ConvAttrs pointwise{1, 1, 1, 1, graph::Padding::kSame};
      k.Conv2dInto(dw, w.conv, pointwise, out);
      k.BatchNormInto(out, w.bn, out);  // elementwise, in place
      break;
    }
  }
}

Tensor ArenaExecutor::Value(graph::NodeId id) const {
  SERENITY_CHECK_GE(id, 0);
  SERENITY_CHECK_LT(id, graph_.num_nodes());
  // Copying a view snapshots it into an owning tensor (runtime/tensor.h).
  return value_views_[static_cast<std::size_t>(id)];
}

std::vector<Tensor> ArenaExecutor::SinkValues() const {
  std::vector<Tensor> values;
  values.reserve(sink_views_.size());
  for (const Tensor* view : sink_views_) values.push_back(*view);
  return values;
}

}  // namespace serenity::runtime
