#include "rewrite/rewriter.h"

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace serenity::rewrite {

namespace {

// A planned substitution: the consuming conv/depthwise node and the concat
// feeding it, both of which the rebuilt graph replaces with partial ops.
struct PlannedRewrite {
  graph::NodeId concat = graph::kInvalidNode;
  graph::NodeId conv = graph::kInvalidNode;
  bool depthwise = false;
};

// If `node` is a `kind` whose only operand is a concat of >= 2 branches
// that has no other consumer, returns that concat. A concat with a second
// consumer must stay materialized anyway, so removing it saves nothing.
graph::NodeId ConcatOperand(const graph::Graph& graph, const graph::Node& node,
                            graph::OpKind kind) {
  if (node.kind != kind || node.inputs.size() != 1) return graph::kInvalidNode;
  const graph::Node& concat = graph.node(node.inputs[0]);
  if (concat.kind != graph::OpKind::kConcat || concat.inputs.size() < 2 ||
      graph.consumers(concat.id).size() != 1) {
    return graph::kInvalidNode;
  }
  return concat.id;
}

std::vector<PlannedRewrite> PlanRewrites(const graph::Graph& graph) {
  std::vector<PlannedRewrite> plans;
  for (const graph::Node& node : graph.nodes()) {
    graph::NodeId concat = ConcatOperand(graph, node, graph::OpKind::kConv2d);
    if (concat != graph::kInvalidNode) {
      plans.push_back(PlannedRewrite{concat, node.id, /*depthwise=*/false});
    }
    concat = ConcatOperand(graph, node, graph::OpKind::kDepthwiseConv2d);
    if (concat != graph::kInvalidNode) {
      plans.push_back(PlannedRewrite{concat, node.id, /*depthwise=*/true});
    }
  }
  return plans;
}

class Rebuilder {
 public:
  explicit Rebuilder(const graph::Graph& source) : source_(source) {
    for (const PlannedRewrite& plan : PlanRewrites(source)) {
      by_conv_.emplace(plan.conv, plan);
      skipped_concats_.emplace(plan.concat, plan.conv);
    }
  }

  RewriteResult Run() {
    RewriteResult result;
    result.graph.set_name(source_.name());
    result.report.nodes_before = source_.num_nodes();
    remap_.assign(static_cast<std::size_t>(source_.num_nodes()),
                  graph::kInvalidNode);
    for (const graph::Node& node : source_.nodes()) {
      if (skipped_concats_.count(node.id) != 0) continue;  // dissolved
      const auto plan = by_conv_.find(node.id);
      if (plan == by_conv_.end()) {
        CopyNode(result.graph, node);
      } else if (plan->second.depthwise) {
        EmitKernelWise(result.graph, node, plan->second);
        ++result.report.depthwise_patterns;
      } else {
        EmitChannelWise(result.graph, node, plan->second);
        ++result.report.conv_patterns;
      }
    }
    result.report.nodes_after = result.graph.num_nodes();
    result.graph.ValidateOrDie();
    return result;
  }

 private:
  graph::NodeId Remapped(graph::NodeId old_id) const {
    const graph::NodeId mapped = remap_[static_cast<std::size_t>(old_id)];
    SERENITY_CHECK_NE(mapped, graph::kInvalidNode);
    return mapped;
  }

  // Maps a source buffer into the output graph, preserving sharing so that
  // pre-existing aliasing groups (e.g. re-running the rewriter on an
  // already rewritten graph) survive the copy.
  graph::BufferId RemapBuffer(graph::Graph& out, const graph::Graph& source,
                              graph::BufferId buffer) {
    if (buffer_remap_.empty()) {
      buffer_remap_.assign(static_cast<std::size_t>(source.num_buffers()),
                           graph::kInvalidBuffer);
    }
    auto& mapped = buffer_remap_[static_cast<std::size_t>(buffer)];
    if (mapped == graph::kInvalidBuffer) {
      mapped = out.AddBuffer(source.buffer(buffer).size_bytes);
    }
    return mapped;
  }

  void CopyNode(graph::Graph& out, const graph::Node& node) {
    graph::Node copy = node;
    copy.id = graph::kInvalidNode;
    copy.buffer = RemapBuffer(out, source_, node.buffer);
    copy.inputs.clear();
    for (const graph::NodeId input : node.inputs) {
      copy.inputs.push_back(Remapped(input));
    }
    remap_[static_cast<std::size_t>(node.id)] = out.AddNode(std::move(copy));
  }

  // concat + conv → partial conv; partial conv accumulate ... (Eq. 3-6).
  void EmitChannelWise(graph::Graph& out, const graph::Node& conv,
                       const PlannedRewrite& plan) {
    const graph::Node& concat = source_.node(plan.concat);
    const graph::BufferId accumulator =
        out.AddBuffer(conv.OutputBytes());
    graph::NodeId prev = graph::kInvalidNode;
    int channel_offset = 0;
    for (std::size_t i = 0; i < concat.inputs.size(); ++i) {
      const graph::NodeId branch = concat.inputs[i];
      const int branch_channels = source_.node(branch).shape.c;
      graph::Node partial;
      partial.kind = (i == 0) ? graph::OpKind::kPartialConv2d
                              : graph::OpKind::kPartialConv2dAccum;
      partial.name =
          conv.name + "/partial" + std::to_string(i);
      partial.dtype = conv.dtype;
      partial.shape = conv.shape;  // every partial spans the full output
      partial.conv = conv.conv;
      partial.buffer = accumulator;
      partial.weight_seed = conv.weight_seed;
      partial.weight_in_channels = concat.shape.c;
      partial.in_channel_offset = channel_offset;
      // Kernel parameters split by in-channel slice; bias rides on the
      // first partial so the totals match the original conv.
      partial.weight_count =
          static_cast<std::int64_t>(conv.conv.kernel_h) * conv.conv.kernel_w *
              branch_channels * conv.shape.c +
          (i == 0 ? conv.shape.c : 0);
      if (i == 0) {
        partial.inputs = {Remapped(branch)};
      } else {
        partial.inputs = {prev, Remapped(branch)};
      }
      prev = out.AddNode(std::move(partial));
      channel_offset += branch_channels;
    }
    remap_[static_cast<std::size_t>(conv.id)] = prev;
  }

  // concat + depthwise → partial depthwise ... + concat view (Eq. 7-8).
  void EmitKernelWise(graph::Graph& out, const graph::Node& dwconv,
                      const PlannedRewrite& plan) {
    const graph::Node& concat = source_.node(plan.concat);
    const graph::BufferId shared = out.AddBuffer(dwconv.OutputBytes());
    std::vector<graph::NodeId> partials;
    partials.reserve(concat.inputs.size());
    int channel_offset = 0;
    for (std::size_t i = 0; i < concat.inputs.size(); ++i) {
      const graph::NodeId branch = concat.inputs[i];
      const int branch_channels = source_.node(branch).shape.c;
      graph::Node partial;
      partial.kind = graph::OpKind::kPartialDepthwiseConv2d;
      partial.name = dwconv.name + "/partial" + std::to_string(i);
      partial.dtype = dwconv.dtype;
      partial.shape = dwconv.shape;
      partial.shape.c = branch_channels;  // this branch's slice of y
      partial.conv = dwconv.conv;
      partial.buffer = shared;
      partial.buffer_channel_offset = channel_offset;
      partial.weight_seed = dwconv.weight_seed;
      partial.weight_in_channels = concat.shape.c;
      partial.in_channel_offset = channel_offset;
      partial.weight_count =
          static_cast<std::int64_t>(dwconv.conv.kernel_h) *
              dwconv.conv.kernel_w * branch_channels +
          branch_channels;
      partial.inputs = {Remapped(branch)};
      partials.push_back(out.AddNode(std::move(partial)));
      channel_offset += branch_channels;
    }
    graph::Node view;
    view.kind = graph::OpKind::kConcatView;
    view.name = dwconv.name + "/view";
    view.dtype = dwconv.dtype;
    view.shape = dwconv.shape;
    view.buffer = shared;
    view.inputs = partials;
    remap_[static_cast<std::size_t>(dwconv.id)] = out.AddNode(std::move(view));
  }

  const graph::Graph& source_;
  std::map<graph::NodeId, PlannedRewrite> by_conv_;
  std::map<graph::NodeId, graph::NodeId> skipped_concats_;
  std::vector<graph::NodeId> remap_;
  std::vector<graph::BufferId> buffer_remap_;
};

// Pre-pass: relu(concat(x...)) -> concat(relu(x)...). ReLU is elementwise,
// so it commutes with concatenation exactly; afterwards the concat directly
// feeds whatever consumed the ReLU, exposing the partitioning patterns.
graph::Graph PushReluThroughConcat(const graph::Graph& source, int* pushes) {
  std::map<graph::NodeId, graph::NodeId> relu_of_concat;
  for (const graph::Node& node : source.nodes()) {
    const graph::NodeId concat =
        ConcatOperand(source, node, graph::OpKind::kRelu);
    if (concat != graph::kInvalidNode) relu_of_concat.emplace(concat, node.id);
  }
  if (relu_of_concat.empty()) return source;

  graph::Graph out(source.name());
  std::vector<graph::NodeId> remap(
      static_cast<std::size_t>(source.num_nodes()), graph::kInvalidNode);
  std::vector<graph::BufferId> buffer_remap(
      static_cast<std::size_t>(source.num_buffers()), graph::kInvalidBuffer);
  const auto map_buffer = [&](graph::BufferId b) {
    auto& mapped = buffer_remap[static_cast<std::size_t>(b)];
    if (mapped == graph::kInvalidBuffer) {
      mapped = out.AddBuffer(source.buffer(b).size_bytes);
    }
    return mapped;
  };
  std::map<graph::NodeId, graph::NodeId> pending;  // relu -> new concat
  for (const graph::Node& node : source.nodes()) {
    if (const auto it = relu_of_concat.find(node.id);
        it != relu_of_concat.end()) {
      // Emit a per-branch ReLU, then the concat over them.
      std::vector<graph::NodeId> relu_branches;
      for (std::size_t i = 0; i < node.inputs.size(); ++i) {
        const graph::Node& branch = source.node(node.inputs[i]);
        graph::Node r;
        r.kind = graph::OpKind::kRelu;
        r.name = node.name + "/relu" + std::to_string(i);
        r.dtype = node.dtype;
        r.shape = branch.shape;
        r.inputs = {remap[static_cast<std::size_t>(branch.id)]};
        relu_branches.push_back(out.AddNode(std::move(r)));
      }
      graph::Node cat = node;
      cat.id = graph::kInvalidNode;
      cat.buffer = graph::kInvalidBuffer;
      cat.inputs = relu_branches;
      const graph::NodeId new_cat = out.AddNode(std::move(cat));
      remap[static_cast<std::size_t>(node.id)] = new_cat;
      pending.emplace(it->second, new_cat);
      ++*pushes;
      continue;
    }
    if (const auto it = pending.find(node.id); it != pending.end()) {
      // The old ReLU: its value is the new concat.
      remap[static_cast<std::size_t>(node.id)] = it->second;
      continue;
    }
    graph::Node copy = node;
    copy.id = graph::kInvalidNode;
    copy.buffer = map_buffer(node.buffer);
    copy.inputs.clear();
    for (const graph::NodeId input : node.inputs) {
      SERENITY_CHECK_NE(remap[static_cast<std::size_t>(input)],
                        graph::kInvalidNode);
      copy.inputs.push_back(remap[static_cast<std::size_t>(input)]);
    }
    remap[static_cast<std::size_t>(node.id)] = out.AddNode(std::move(copy));
  }
  out.ValidateOrDie();
  return out;
}

}  // namespace

RewriteResult RewriteGraph(const graph::Graph& graph,
                           const RewriteOptions& /*options*/) {
  int pushes = 0;
  const graph::Graph pushed = PushReluThroughConcat(graph, &pushes);
  RewriteResult result = Rebuilder(pushed).Run();
  result.report.relu_pushes = pushes;
  result.report.nodes_before = graph.num_nodes();
  return result;
}

}  // namespace serenity::rewrite
