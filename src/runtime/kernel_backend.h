// Unified kernel-dispatch API: one Backend enum, one per-op dispatch table
// resolved once at executor construction.
//
// The triplicated `Tensor Foo(...)` / `FooInto(...)` / `FooPartial(...)`
// surface collapsed into this: every operator has exactly one public entry
// point — the `...Into` form on a resolved KernelBackend — and the backend
// decides how the arithmetic is carried out:
//
//   * kReference — the naive bounds-checked loops of runtime/kernels.h.
//     Trivially auditable against the paper's equations; the oracle the
//     parity suite pins every other backend against.
//   * kBlocked   — the vectorized kernels (runtime/kernels_blocked.cc)
//     built for the baseline ISA: raw pixel-run pointers, clamped tap
//     ranges instead of per-tap bounds checks, generic vectors as wide as
//     the build's native register (16 bytes: SSE2 on x86-64, NEON on
//     AArch64) across independent outputs. Always built; the fallback for
//     every unavailable ISA build.
//   * kAvx2      — the same source built a second time for AVX2 (32-byte
//     vectors), not a second implementation. Compiled in only on x86-64
//     builds and entered only when cpuid reports AVX2 at runtime.
//   * kAuto      — resolves to the fastest available backend at dispatch
//     resolution. What production callers should ask for.
//
// Bit-identity contract: every backend vectorizes across *independent*
// outputs only, preserves each output's summation order, and uses no FMA
// (the kernel sources are compiled with -ffp-contract=off) — so all
// backends produce bit-identical results and the executors'
// sink-vs-reference gates hold unchanged under any backend (DESIGN.md
// "Bit-identity contract and the ULP policy" documents the policy a future
// order-relaxing backend would fall under).
//
// Resolution is pure and total: GetKernelBackend(b) never fails — an
// unavailable backend resolves to kBlocked (the cpuid guard), so a binary
// built with AVX2 runs correctly on a machine without it. The env var
// SERENITY_DISABLE_AVX2=1 forces that fallback path for testing.
#ifndef SERENITY_RUNTIME_KERNEL_BACKEND_H_
#define SERENITY_RUNTIME_KERNEL_BACKEND_H_

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "graph/types.h"
#include "runtime/tensor.h"
#include "runtime/weights.h"
#include "util/logging.h"

namespace serenity::runtime {

enum class Backend : std::uint8_t {
  kReference,  // naive loops, the bit-exact oracle
  kBlocked,    // the vectorized kernels, baseline ISA build, always built
  kAvx2,       // the same kernels built for AVX2, behind a cpuid guard
  kAuto,       // fastest available, resolved at dispatch resolution
};

const char* ToString(Backend backend);

// Parses "reference" / "blocked" / "avx2" / "auto" (the --backend= values).
std::optional<Backend> ParseBackend(std::string_view name);

// True when `backend` can actually execute here: compiled in, the runtime
// ISA guard (cpuid for kAvx2) passes, and it is not disabled by env
// (SERENITY_DISABLE_AVX2). kReference/kBlocked/kAuto are always available.
bool BackendAvailable(Backend backend);

// The backend `requested` resolves to: kAuto picks the fastest available;
// an unavailable ISA backend falls back to kBlocked. Never kAuto itself.
Backend ResolveBackend(Backend requested);

// Backends available on this machine, in resolution preference order —
// what `bench_infer_latency` iterates for its per-backend rows.
std::vector<Backend> AvailableBackends();

// Arena placement alignment `backend` wants for vector loads: sizeof(float)
// for kReference, 32 bytes for the vectorized backends (the planner's
// 64-byte default satisfies both; ValidatePlanForGraph enforces it).
std::int64_t PlacementAlignment(Backend backend);

// The per-op dispatch table. Resolved once (GetKernelBackend) and then
// called through for every node execution — no per-call branching on the
// backend, no allocation. The raw pointers are the backend's op entry
// points; the inline methods are the public shape-checked surface.
struct KernelBackend {
  Backend id = Backend::kReference;

  void (*conv2d_partial)(const Tensor&, const ConvWeights&,
                         const graph::ConvAttrs&, int, bool, bool,
                         Tensor&) = nullptr;
  void (*depthwise_partial)(const Tensor&, const DepthwiseWeights&,
                            const graph::ConvAttrs&, int, Tensor&,
                            int) = nullptr;
  void (*dense)(const Tensor&, const DenseWeights&, Tensor&) = nullptr;
  void (*concat)(const std::vector<const Tensor*>&, Tensor&) = nullptr;
  void (*add)(const std::vector<const Tensor*>&, Tensor&) = nullptr;
  void (*mul)(const std::vector<const Tensor*>&, Tensor&) = nullptr;
  void (*relu)(const Tensor&, Tensor&) = nullptr;
  void (*batch_norm)(const Tensor&, const BatchNormWeights&,
                     Tensor&) = nullptr;
  void (*max_pool)(const Tensor&, const graph::ConvAttrs&,
                   Tensor&) = nullptr;
  void (*avg_pool)(const Tensor&, const graph::ConvAttrs&,
                   Tensor&) = nullptr;
  void (*global_avg_pool)(const Tensor&, Tensor&) = nullptr;

  // ---- the public `...Into` surface (shape checks live here, once) ----

  void Conv2dInto(const Tensor& input, const ConvWeights& weights,
                  const graph::ConvAttrs& attrs, Tensor& out) const {
    SERENITY_CHECK_EQ(input.shape().c, weights.in_c);
    SERENITY_CHECK(out.shape() == graph::InferConv2dShape(input.shape(),
                                                          attrs,
                                                          weights.out_c))
        << "Conv2d output shape mismatch";
    conv2d_partial(input, weights, attrs, /*ic_offset=*/0,
                   /*overwrite=*/true, /*add_bias=*/true, out);
  }

  void Conv2dPartial(const Tensor& input, const ConvWeights& weights,
                     const graph::ConvAttrs& attrs, int ic_offset,
                     bool overwrite, bool add_bias, Tensor& acc) const {
    conv2d_partial(input, weights, attrs, ic_offset, overwrite, add_bias,
                   acc);
  }

  void DepthwiseConv2dInto(const Tensor& input,
                           const DepthwiseWeights& weights,
                           const graph::ConvAttrs& attrs, Tensor& out) const {
    SERENITY_CHECK_EQ(input.shape().c, weights.c);
    SERENITY_CHECK(out.shape() ==
                   graph::InferDepthwiseShape(input.shape(), attrs))
        << "DepthwiseConv2d output shape mismatch";
    depthwise_partial(input, weights, attrs, /*weight_c_offset=*/0, out,
                      /*out_c_offset=*/0);
  }

  void DepthwiseConv2dPartial(const Tensor& input,
                              const DepthwiseWeights& weights,
                              const graph::ConvAttrs& attrs,
                              int weight_c_offset, Tensor& out,
                              int out_c_offset) const {
    depthwise_partial(input, weights, attrs, weight_c_offset, out,
                      out_c_offset);
  }

  void DenseInto(const Tensor& input, const DenseWeights& weights,
                 Tensor& out) const {
    dense(input, weights, out);
  }
  void ConcatInto(const std::vector<const Tensor*>& inputs,
                  Tensor& out) const {
    concat(inputs, out);
  }
  void AddInto(const std::vector<const Tensor*>& inputs, Tensor& out) const {
    add(inputs, out);
  }
  void MulInto(const std::vector<const Tensor*>& inputs, Tensor& out) const {
    mul(inputs, out);
  }
  void ReluInto(const Tensor& input, Tensor& out) const { relu(input, out); }
  void BatchNormInto(const Tensor& input, const BatchNormWeights& weights,
                     Tensor& out) const {
    batch_norm(input, weights, out);
  }
  void MaxPool2dInto(const Tensor& input, const graph::ConvAttrs& attrs,
                     Tensor& out) const {
    max_pool(input, attrs, out);
  }
  void AvgPool2dInto(const Tensor& input, const graph::ConvAttrs& attrs,
                     Tensor& out) const {
    avg_pool(input, attrs, out);
  }
  void GlobalAvgPool2dInto(const Tensor& input, Tensor& out) const {
    global_avg_pool(input, out);
  }
};

// The dispatch table `backend` resolves to on this machine. The returned
// reference is to an immutable static table; resolving is cheap but
// executors still do it exactly once, at construction.
const KernelBackend& GetKernelBackend(Backend backend);

}  // namespace serenity::runtime

#endif  // SERENITY_RUNTIME_KERNEL_BACKEND_H_
