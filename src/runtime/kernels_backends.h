// Internal declarations shared by the kernel backends behind the dispatch
// API (runtime/kernel_backend.h). Not part of the public surface: code
// outside runtime/ resolves a KernelBackend and calls through it.
//
// Every backend computes the SAME arithmetic in the SAME per-output-element
// order as the reference kernels (runtime/kernels.h): vectorization runs
// across *independent* outputs, never across a single output's summation,
// and no backend uses fused multiply-add (the kernel sources are compiled
// with -ffp-contract=off). That is the mechanism behind the bit-identity
// contract the parity suite pins (tests/kernel_parity_property_test.cc) —
// see DESIGN.md "Bit-identity contract and the ULP policy" for the policy
// if a future backend has to relax it.
#ifndef SERENITY_RUNTIME_KERNELS_BACKENDS_H_
#define SERENITY_RUNTIME_KERNELS_BACKENDS_H_

#include <algorithm>
#include <vector>

#include "graph/types.h"
#include "runtime/tensor.h"
#include "runtime/weights.h"

namespace serenity::runtime {

namespace internal {

struct Padding2d {
  int top = 0;
  int left = 0;
};

// TF-style padding: SAME pads to ceil(in/stride) outputs with the smaller
// half before; VALID pads nothing. Shared by every backend so they agree on
// tap geometry by construction.
inline Padding2d ComputePadding(const graph::TensorShape& in,
                                const graph::ConvAttrs& attrs, int out_h,
                                int out_w) {
  if (attrs.padding == graph::Padding::kValid) return {};
  const int eff_kh = attrs.dilation * (attrs.kernel_h - 1) + 1;
  const int eff_kw = attrs.dilation * (attrs.kernel_w - 1) + 1;
  const int pad_h = std::max(0, (out_h - 1) * attrs.stride + eff_kh - in.h);
  const int pad_w = std::max(0, (out_w - 1) * attrs.stride + eff_kw - in.w);
  return {pad_h / 2, pad_w / 2};
}

// First kernel tap k with 0 <= pos + k * dilation given pos (may be
// negative): the lowest k the reference loop's bounds check admits.
inline int FirstValidTap(int pos, int dilation) {
  return pos >= 0 ? 0 : (-pos + dilation - 1) / dilation;
}

// One past the last kernel tap k with pos + k * dilation < extent.
inline int EndValidTap(int pos, int dilation, int kernel, int extent) {
  if (pos >= extent) return 0;
  return std::min(kernel, (extent - 1 - pos) / dilation + 1);
}

}  // namespace internal

// The vectorized kernels (runtime/kernels_blocked.cc): one source, built
// once for the baseline ISA (namespace blocked, Backend::kBlocked, always
// compiled) and, on x86-64, once more for AVX2 (namespace avx2,
// Backend::kAvx2, only entered through the dispatch table's runtime cpuid
// guard). Both builds define the same op list, declared here once.
#define SERENITY_VECTOR_KERNEL_OPS                                          \
  void Conv2dPartial(const Tensor& input, const ConvWeights& weights,      \
                     const graph::ConvAttrs& attrs, int ic_offset,         \
                     bool overwrite, bool add_bias, Tensor& acc);          \
  void DepthwiseConv2dPartial(                                             \
      const Tensor& input, const DepthwiseWeights& weights,                \
      const graph::ConvAttrs& attrs, int weight_c_offset, Tensor& out,     \
      int out_c_offset);                                                   \
  void DenseInto(const Tensor& input, const DenseWeights& weights,         \
                 Tensor& out);                                             \
  void ConcatInto(const std::vector<const Tensor*>& inputs, Tensor& out);  \
  void AddInto(const std::vector<const Tensor*>& inputs, Tensor& out);     \
  void MulInto(const std::vector<const Tensor*>& inputs, Tensor& out);     \
  void ReluInto(const Tensor& input, Tensor& out);                         \
  void BatchNormInto(const Tensor& input, const BatchNormWeights& weights, \
                     Tensor& out);                                         \
  void MaxPool2dInto(const Tensor& input, const graph::ConvAttrs& attrs,   \
                     Tensor& out);                                         \
  void AvgPool2dInto(const Tensor& input, const graph::ConvAttrs& attrs,   \
                     Tensor& out);                                         \
  void GlobalAvgPool2dInto(const Tensor& input, Tensor& out);

namespace blocked {
SERENITY_VECTOR_KERNEL_OPS
}  // namespace blocked

#if defined(SERENITY_HAVE_AVX2)
namespace avx2 {
SERENITY_VECTOR_KERNEL_OPS
}  // namespace avx2
#endif  // SERENITY_HAVE_AVX2

#undef SERENITY_VECTOR_KERNEL_OPS

}  // namespace serenity::runtime

#endif  // SERENITY_RUNTIME_KERNELS_BACKENDS_H_
