// Deterministic synthetic weights.
//
// Every weighted op carries a `weight_seed` assigned at graph construction;
// materializing weights from the seed (instead of storing them in the IR)
// keeps graphs light while guaranteeing that a rewritten graph — whose
// partial ops inherit the original op's seed plus a channel offset — reads
// the *same* virtual weight tensor as the op it replaced. That is the
// mechanism behind the identity-preservation tests.
#ifndef SERENITY_RUNTIME_WEIGHTS_H_
#define SERENITY_RUNTIME_WEIGHTS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/graph.h"

namespace serenity::runtime {

// Dense convolution kernel, layout [kh][kw][in_c][out_c], plus bias[out_c].
struct ConvWeights {
  int kh = 0, kw = 0, in_c = 0, out_c = 0;
  std::vector<float> kernel;
  std::vector<float> bias;

  float KernelAt(int y, int x, int ic, int oc) const {
    return kernel[static_cast<std::size_t>(
        ((static_cast<std::int64_t>(y) * kw + x) * in_c + ic) * out_c + oc)];
  }
};

// Depthwise kernel, layout [kh][kw][c] (channel multiplier 1), plus bias[c].
struct DepthwiseWeights {
  int kh = 0, kw = 0, c = 0;
  std::vector<float> kernel;
  std::vector<float> bias;

  float KernelAt(int y, int x, int channel) const {
    return kernel[static_cast<std::size_t>(
        (static_cast<std::int64_t>(y) * kw + x) * c + channel)];
  }
};

struct BatchNormWeights {
  std::vector<float> scale;
  std::vector<float> shift;
};

struct DenseWeights {
  int in = 0, units = 0;
  std::vector<float> kernel;  // [in][units]
  std::vector<float> bias;

  float KernelAt(int i, int u) const {
    return kernel[static_cast<std::size_t>(
        static_cast<std::int64_t>(i) * units + u)];
  }
};

// All generators are pure functions of their arguments; the same seed and
// dimensions always produce the same weights.
ConvWeights MakeConvWeights(std::uint64_t seed, int kh, int kw, int in_c,
                            int out_c);
DepthwiseWeights MakeDepthwiseWeights(std::uint64_t seed, int kh, int kw,
                                      int c);
BatchNormWeights MakeBatchNormWeights(std::uint64_t seed, int c);
DenseWeights MakeDenseWeights(std::uint64_t seed, int in, int units);

// Sub-seed salts for ops that bundle several weight tensors (kFusedCell's
// depthwise + pointwise + batch-norm stages).
inline constexpr std::uint64_t kFusedDepthwiseSalt = 0x5eed0001;
inline constexpr std::uint64_t kFusedPointwiseSalt = 0x5eed0002;
inline constexpr std::uint64_t kFusedBatchNormSalt = 0x5eed0003;

// Every weight tensor one node's execution reads, materialized from the
// node's seed. Weights live outside the activation arena: the
// ReferenceExecutor materializes them per Execute call, the ArenaExecutor
// reads one immutable per-graph copy (its own, or one shared with the other
// sessions of a pooled plan), and both read the *same* virtual weight
// tensors — the mechanism behind the identity-preservation and
// arena-vs-reference bit-identity tests. Only the members the node's kind
// uses are populated; the rest stay empty.
struct NodeWeights {
  ConvWeights conv;      // kConv2d / kPartialConv2d* / fused pointwise
  DepthwiseWeights dw;   // depthwise kinds / fused depthwise
  BatchNormWeights bn;   // kBatchNorm / fused batch norm
  DenseWeights dense;    // kDense
};

NodeWeights MaterializeNodeWeights(const graph::Node& node);

// One graph's weights, indexed by node id. Immutable once built, so every
// executor over the same graph can read one shared copy.
using GraphWeights = std::vector<NodeWeights>;

std::shared_ptr<const GraphWeights> MaterializeGraphWeights(
    const graph::Graph& graph);

// Bytes of the weight tensors in `weights`: every kernel, bias, scale and
// shift float of every node.
std::int64_t GraphWeightBytes(const GraphWeights& weights);

}  // namespace serenity::runtime

#endif  // SERENITY_RUNTIME_WEIGHTS_H_
