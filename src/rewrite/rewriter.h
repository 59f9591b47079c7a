// Identity graph rewriting (paper §3.3, Fig. 9): transformations that lower
// the achievable peak footprint while keeping the network's arithmetic
// output bit-identical in exact arithmetic (floating-point reassociation
// aside — verified to tolerance by the reference runtime in the tests).
//
// Two partitionings, plus one enabling swap; RewriteGraph always applies
// all three:
//
// 1. Channel-wise partitioning (concat + conv → partial convs + in-place
//    accumulation, Eq. 3-6). The concat disappears; each branch xi is
//    convolved with the matching in-channel slice w⋆i of the original
//    kernel as soon as xi is available, accumulating into a shared output
//    buffer. Memory cost drops from Σ|xi| + |y| to max_i(|xi|) + |y|.
//
// 2. Kernel-wise partitioning (concat + depthwise conv → partial depthwise
//    convs + concat view, Eq. 7-8). Depthwise kernels act per channel, so
//    each branch is filtered independently, writing directly into its
//    channel slice of the shared output buffer; the concat becomes a
//    zero-cost view. Memory cost drops from Σ|xi| + |y| to max_i(|xi| + |yi|).
//
// 3. The enabling swap relu(concat(x...)) == concat(relu(x)...), applied
//    first, when a ReLU separates a concat from its conv (e.g. DARTS cells,
//    whose outputs feed the next cell's ReLU-Conv-BN preprocessing). It is
//    an exact identity that exposes patterns 1/2 across the ReLU.
//
// All three rewrites recognize the same shape: a node of the pattern's kind
// (kConv2d, kDepthwiseConv2d, kRelu) whose only operand is a kConcat with
// at least two operands and no other consumer. A concat that something else
// also reads stays materialized, so dissolving it would save nothing.
#ifndef SERENITY_REWRITE_REWRITER_H_
#define SERENITY_REWRITE_REWRITER_H_

#include <vector>

#include "graph/graph.h"

namespace serenity::rewrite {

// No settings left; remove with the next benchmark PR (perfbench passes
// PipelineOptions::rewrite through to RewriteGraph).
struct RewriteOptions {};

struct RewriteReport {
  int conv_patterns = 0;       // channel-wise partitionings applied
  int depthwise_patterns = 0;  // kernel-wise partitionings applied
  int relu_pushes = 0;         // concat+relu commutations applied
  int nodes_before = 0;
  int nodes_after = 0;

  int TotalPatterns() const {
    return conv_patterns + depthwise_patterns + relu_pushes;
  }
};

struct RewriteResult {
  graph::Graph graph;
  RewriteReport report;
};

// Returns a rewritten copy of `graph`. Graphs without matching patterns are
// copied unchanged (report.TotalPatterns() == 0).
RewriteResult RewriteGraph(const graph::Graph& graph,
                           const RewriteOptions& options = {});

}  // namespace serenity::rewrite

#endif  // SERENITY_REWRITE_REWRITER_H_
