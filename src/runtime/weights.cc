#include "runtime/weights.h"

#include "util/rng.h"

namespace serenity::runtime {

namespace {
// Small magnitude keeps deep synthetic networks numerically tame.
constexpr float kWeightScale = 0.25f;
}  // namespace

ConvWeights MakeConvWeights(std::uint64_t seed, int kh, int kw, int in_c,
                            int out_c) {
  util::Rng rng(seed);
  ConvWeights w;
  w.kh = kh;
  w.kw = kw;
  w.in_c = in_c;
  w.out_c = out_c;
  w.kernel.resize(static_cast<std::size_t>(kh) * kw * in_c * out_c);
  for (float& v : w.kernel) v = rng.NextFloat(kWeightScale);
  w.bias.resize(static_cast<std::size_t>(out_c));
  for (float& v : w.bias) v = rng.NextFloat(kWeightScale);
  return w;
}

DepthwiseWeights MakeDepthwiseWeights(std::uint64_t seed, int kh, int kw,
                                      int c) {
  util::Rng rng(seed);
  DepthwiseWeights w;
  w.kh = kh;
  w.kw = kw;
  w.c = c;
  w.kernel.resize(static_cast<std::size_t>(kh) * kw * c);
  for (float& v : w.kernel) v = rng.NextFloat(kWeightScale);
  w.bias.resize(static_cast<std::size_t>(c));
  for (float& v : w.bias) v = rng.NextFloat(kWeightScale);
  return w;
}

BatchNormWeights MakeBatchNormWeights(std::uint64_t seed, int c) {
  util::Rng rng(seed);
  BatchNormWeights w;
  w.scale.resize(static_cast<std::size_t>(c));
  w.shift.resize(static_cast<std::size_t>(c));
  // Scales near 1 so stacked cells neither explode nor vanish.
  for (float& v : w.scale) v = 1.0f + rng.NextFloat(0.1f);
  for (float& v : w.shift) v = rng.NextFloat(0.1f);
  return w;
}

NodeWeights MaterializeNodeWeights(const graph::Node& node) {
  NodeWeights w;
  switch (node.kind) {
    case graph::OpKind::kConv2d:
    case graph::OpKind::kPartialConv2d:
    case graph::OpKind::kPartialConv2dAccum:
      w.conv = MakeConvWeights(node.weight_seed, node.conv.kernel_h,
                               node.conv.kernel_w, node.weight_in_channels,
                               node.shape.c);
      break;
    case graph::OpKind::kDepthwiseConv2d:
    case graph::OpKind::kPartialDepthwiseConv2d:
      w.dw = MakeDepthwiseWeights(node.weight_seed, node.conv.kernel_h,
                                  node.conv.kernel_w,
                                  node.weight_in_channels);
      break;
    case graph::OpKind::kBatchNorm:
      w.bn = MakeBatchNormWeights(node.weight_seed, node.shape.c);
      break;
    case graph::OpKind::kDense:
      w.dense = MakeDenseWeights(node.weight_seed, node.weight_in_channels,
                                 node.shape.c);
      break;
    case graph::OpKind::kFusedCell:
      w.dw = MakeDepthwiseWeights(node.weight_seed ^ kFusedDepthwiseSalt,
                                  node.conv.kernel_h, node.conv.kernel_w,
                                  node.weight_in_channels);
      w.conv = MakeConvWeights(node.weight_seed ^ kFusedPointwiseSalt, 1, 1,
                               node.weight_in_channels, node.shape.c);
      w.bn = MakeBatchNormWeights(node.weight_seed ^ kFusedBatchNormSalt,
                                  node.shape.c);
      break;
    default:
      break;  // weightless op
  }
  return w;
}

std::shared_ptr<const GraphWeights> MaterializeGraphWeights(
    const graph::Graph& graph) {
  auto weights = std::make_shared<GraphWeights>();
  weights->reserve(static_cast<std::size_t>(graph.num_nodes()));
  for (const graph::Node& node : graph.nodes()) {
    weights->push_back(MaterializeNodeWeights(node));
  }
  return weights;
}

DenseWeights MakeDenseWeights(std::uint64_t seed, int in, int units) {
  util::Rng rng(seed);
  DenseWeights w;
  w.in = in;
  w.units = units;
  w.kernel.resize(static_cast<std::size_t>(in) * units);
  for (float& v : w.kernel) v = rng.NextFloat(kWeightScale);
  w.bias.resize(static_cast<std::size_t>(units));
  for (float& v : w.bias) v = rng.NextFloat(kWeightScale);
  return w;
}

std::int64_t GraphWeightBytes(const GraphWeights& weights) {
  std::size_t floats = 0;
  for (const NodeWeights& w : weights) {
    floats += w.conv.kernel.size() + w.conv.bias.size() + w.dw.kernel.size() +
              w.dw.bias.size() + w.bn.scale.size() + w.bn.shift.size() +
              w.dense.kernel.size() + w.dense.bias.size();
  }
  return static_cast<std::int64_t>(floats * sizeof(float));
}

}  // namespace serenity::runtime
