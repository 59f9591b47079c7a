#include "rewrite/rewriter.h"

#include <gtest/gtest.h>

#include "core/dp_scheduler.h"
#include "graph/analysis.h"
#include "graph/builder.h"
#include "models/darts.h"
#include "models/randwire.h"
#include "models/swiftnet.h"

namespace serenity::rewrite {
namespace {

using graph::GraphBuilder;
using graph::NodeId;
using graph::OpKind;
using graph::TensorShape;

graph::Graph ConcatConv(int branches) {
  GraphBuilder b("cc" + std::to_string(branches));
  const NodeId in = b.Input(TensorShape{1, 8, 8, 4}, "in");
  std::vector<NodeId> xs;
  for (int i = 0; i < branches; ++i) {
    xs.push_back(b.Conv1x1(in, 4, "x" + std::to_string(i)));
  }
  const NodeId cat = b.Concat(xs, "cat");
  const NodeId conv = b.Conv2d(cat, 8, 3, 1, graph::Padding::kSame, 1,
                               "conv");
  (void)b.Relu(conv, "out");
  return std::move(b).Build();
}

graph::Graph ConcatDepthwise(int branches) {
  GraphBuilder b("cd" + std::to_string(branches));
  const NodeId in = b.Input(TensorShape{1, 8, 8, 4}, "in");
  std::vector<NodeId> xs;
  for (int i = 0; i < branches; ++i) {
    xs.push_back(b.Conv1x1(in, 4, "x" + std::to_string(i)));
  }
  const NodeId cat = b.Concat(xs, "cat");
  const NodeId dw = b.DepthwiseConv2d(cat, 3, 1, graph::Padding::kSame, 1,
                                      "dw");
  (void)b.Relu(dw, "out");
  return std::move(b).Build();
}

TEST(Rewriter, ChannelWiseNodeDelta) {
  // concat+conv (2 nodes) -> k partials: delta = k - 2.
  for (const int k : {2, 3, 5, 8}) {
    const graph::Graph g = ConcatConv(k);
    const RewriteResult r = RewriteGraph(g);
    EXPECT_EQ(r.report.conv_patterns, 1);
    EXPECT_EQ(r.report.depthwise_patterns, 0);
    EXPECT_EQ(r.graph.num_nodes(), g.num_nodes() + k - 2) << k;
  }
}

TEST(Rewriter, KernelWiseNodeDelta) {
  // concat+dw (2 nodes) -> k partials + view: delta = k - 1.
  for (const int k : {2, 4, 7}) {
    const graph::Graph g = ConcatDepthwise(k);
    const RewriteResult r = RewriteGraph(g);
    EXPECT_EQ(r.report.depthwise_patterns, 1);
    EXPECT_EQ(r.graph.num_nodes(), g.num_nodes() + k - 1) << k;
  }
}

TEST(Rewriter, PartialConvChainStructure) {
  const graph::Graph g = ConcatConv(3);
  const RewriteResult r = RewriteGraph(g);
  // Find the chain: one kPartialConv2d followed by two accumulators in the
  // same buffer.
  std::vector<const graph::Node*> partials;
  for (const graph::Node& n : r.graph.nodes()) {
    if (n.kind == OpKind::kPartialConv2d ||
        n.kind == OpKind::kPartialConv2dAccum) {
      partials.push_back(&n);
    }
  }
  ASSERT_EQ(partials.size(), 3u);
  EXPECT_EQ(partials[0]->kind, OpKind::kPartialConv2d);
  EXPECT_EQ(partials[1]->kind, OpKind::kPartialConv2dAccum);
  EXPECT_EQ(partials[2]->kind, OpKind::kPartialConv2dAccum);
  EXPECT_EQ(partials[0]->buffer, partials[1]->buffer);
  EXPECT_EQ(partials[1]->buffer, partials[2]->buffer);
  // Accumulators chain through their first operand.
  EXPECT_EQ(partials[1]->inputs[0], partials[0]->id);
  EXPECT_EQ(partials[2]->inputs[0], partials[1]->id);
  // In-channel slices tile the concatenated input: offsets 0, 4, 8.
  EXPECT_EQ(partials[0]->in_channel_offset, 0);
  EXPECT_EQ(partials[1]->in_channel_offset, 4);
  EXPECT_EQ(partials[2]->in_channel_offset, 8);
  for (const graph::Node* p : partials) {
    EXPECT_EQ(p->weight_in_channels, 12);
    EXPECT_EQ(p->weight_seed, partials[0]->weight_seed);
  }
}

TEST(Rewriter, PartialDepthwiseSliceStructure) {
  const graph::Graph g = ConcatDepthwise(3);
  const RewriteResult r = RewriteGraph(g);
  std::vector<const graph::Node*> partials;
  const graph::Node* view = nullptr;
  for (const graph::Node& n : r.graph.nodes()) {
    if (n.kind == OpKind::kPartialDepthwiseConv2d) partials.push_back(&n);
    if (n.kind == OpKind::kConcatView) view = &n;
  }
  ASSERT_EQ(partials.size(), 3u);
  ASSERT_NE(view, nullptr);
  for (std::size_t i = 0; i < partials.size(); ++i) {
    EXPECT_EQ(partials[i]->buffer, view->buffer);
    EXPECT_EQ(partials[i]->buffer_channel_offset, static_cast<int>(i) * 4);
    EXPECT_EQ(partials[i]->shape.c, 4);
  }
  EXPECT_EQ(view->shape.c, 12);
  EXPECT_EQ(view->inputs.size(), 3u);
}

TEST(Rewriter, PreservesWeightAndMacTotals) {
  for (const graph::Graph& g : {ConcatConv(4), ConcatDepthwise(5),
                                models::MakeSwiftNet()}) {
    const RewriteResult r = RewriteGraph(g);
    EXPECT_EQ(graph::CountWeights(r.graph), graph::CountWeights(g))
        << g.name();
    EXPECT_EQ(graph::CountMacs(r.graph), graph::CountMacs(g)) << g.name();
  }
}

TEST(Rewriter, SkipsConcatWithMultipleConsumers) {
  GraphBuilder b("multi_consumer");
  const NodeId in = b.Input(TensorShape{1, 8, 8, 4}, "in");
  const NodeId x0 = b.Conv1x1(in, 4, "x0");
  const NodeId x1 = b.Conv1x1(in, 4, "x1");
  const NodeId cat = b.Concat({x0, x1}, "cat");
  const NodeId conv = b.Conv2d(cat, 8, 3, 1, graph::Padding::kSame, 1,
                               "conv");
  const NodeId other = b.Relu(cat, "other_user");  // second consumer
  (void)b.Concat({conv, other}, "out");
  const graph::Graph g = std::move(b).Build();
  const RewriteResult r = RewriteGraph(g);
  EXPECT_EQ(r.report.TotalPatterns(), 0);
  EXPECT_EQ(r.graph.num_nodes(), g.num_nodes());
}

TEST(Rewriter, SkipsDepthwiseConcatWithMultipleConsumers) {
  GraphBuilder b("dw_multi_consumer");
  const NodeId in = b.Input(TensorShape{1, 8, 8, 4}, "in");
  const NodeId x0 = b.Conv1x1(in, 4, "x0");
  const NodeId x1 = b.Conv1x1(in, 4, "x1");
  const NodeId cat = b.Concat({x0, x1}, "cat");
  const NodeId dw = b.DepthwiseConv2d(cat, 3, 1, graph::Padding::kSame, 1,
                                      "dw");
  const NodeId other = b.Relu(cat, "other_user");  // second consumer
  (void)b.Concat({dw, other}, "out");
  const graph::Graph g = std::move(b).Build();
  const RewriteResult r = RewriteGraph(g);
  EXPECT_EQ(r.report.TotalPatterns(), 0);
  EXPECT_EQ(r.graph.num_nodes(), g.num_nodes());
}

// relu(concat(x0, x1)) -> conv, optionally with a second consumer of the
// concat. Only the single-consumer form may be pushed (and then exposes
// the channel-wise pattern across the ReLU).
graph::Graph ReluOverConcat(bool second_consumer) {
  GraphBuilder b(second_consumer ? "relu_multi" : "relu_single");
  const NodeId in = b.Input(TensorShape{1, 8, 8, 4}, "in");
  const NodeId x0 = b.Conv1x1(in, 4, "x0");
  const NodeId x1 = b.Conv1x1(in, 4, "x1");
  const NodeId cat = b.Concat({x0, x1}, "cat");
  const NodeId relu = b.Relu(cat, "relu");
  const NodeId conv = b.Conv2d(relu, 8, 3, 1, graph::Padding::kSame, 1,
                               "conv");
  if (second_consumer) {
    const NodeId other = b.Conv1x1(cat, 8, "other_user");
    (void)b.Concat({conv, other}, "out");
  }
  return std::move(b).Build();
}

TEST(Rewriter, PushesReluOnlyThroughSingleConsumerConcat) {
  const RewriteResult single = RewriteGraph(ReluOverConcat(false));
  EXPECT_EQ(single.report.relu_pushes, 1);
  EXPECT_EQ(single.report.conv_patterns, 1);

  const graph::Graph g = ReluOverConcat(true);
  const RewriteResult multi = RewriteGraph(g);
  EXPECT_EQ(multi.report.relu_pushes, 0);
  EXPECT_EQ(multi.report.TotalPatterns(), 0);
  EXPECT_EQ(multi.graph.num_nodes(), g.num_nodes());
}

TEST(Rewriter, IdempotentOnRewrittenGraph) {
  const RewriteResult once = RewriteGraph(models::MakeSwiftNetCellA());
  const RewriteResult twice = RewriteGraph(once.graph);
  EXPECT_EQ(twice.report.TotalPatterns(), 0);
  EXPECT_EQ(twice.graph.num_nodes(), once.graph.num_nodes());
}

TEST(Rewriter, SwiftNetPatternInventory) {
  // Cell A: 8-branch conv pattern + 7-branch depthwise pattern, etc.
  const RewriteResult full = RewriteGraph(models::MakeSwiftNet());
  EXPECT_EQ(full.report.conv_patterns, 3);
  EXPECT_EQ(full.report.depthwise_patterns, 3);
  EXPECT_EQ(full.report.nodes_before, 62);
  EXPECT_EQ(full.report.nodes_after, 90);
}

TEST(Rewriter, RandWireHasNoPatterns) {
  // RandWire aggregates by addition, not concatenation: rewriting is a
  // no-op, matching the paper's Figure 10 (identical DP and DP+GR bars).
  const graph::Graph g = models::MakeRandWireCifar10CellA();
  const RewriteResult r = RewriteGraph(g);
  EXPECT_EQ(r.report.TotalPatterns(), 0);
}

TEST(Rewriter, LowersAchievableOptimalPeak) {
  // The point of §3.3: the rewritten search space contains schedules with
  // strictly lower optimal peaks when concat dominates the footprint.
  const graph::Graph g = ConcatConv(8);
  const core::DpResult before = core::ScheduleDp(g);
  const core::DpResult after = core::ScheduleDp(RewriteGraph(g).graph);
  ASSERT_EQ(before.status, core::DpStatus::kSolution);
  ASSERT_EQ(after.status, core::DpStatus::kSolution);
  EXPECT_LT(after.peak_bytes, before.peak_bytes);
}

}  // namespace
}  // namespace serenity::rewrite
