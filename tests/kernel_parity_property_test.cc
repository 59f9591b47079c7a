// Parity property suite for the kernel-dispatch backends: across ~1000
// random shapes per operator, every non-reference backend (kBlocked always,
// kAvx2 when the machine has it) produces *bit-identical* results to the
// Backend::kReference oracle for the same call sequence.
//
// Bit-identity is the contract, not a tolerance: the blocked and AVX2
// builds of the vectorized kernels vectorize only across independent
// outputs, preserve each output's summation order, and use no FMA, so they
// compute the exact same float sequence the reference loops compute (see
// DESIGN.md "Bit-identity contract and the ULP policy"). The shapes
// exercise channel-window views on inputs and outputs, SAME/VALID padding,
// strides, dilations, the partial-op channel offsets the rewriter emits,
// channel counts wide enough to reach every vector chunk width and its
// scalar tail, and conv rows wide enough for every register tile of output
// pixels, its pixel tail and the tiles that padding breaks at both borders.
// A windowed output is compared across backends over its whole backing
// store, so a kernel that writes into the channels around its window fails.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "graph/types.h"
#include "runtime/kernel_backend.h"
#include "runtime/tensor.h"
#include "runtime/weights.h"
#include "util/rng.h"

namespace serenity::runtime {
namespace {

using graph::ConvAttrs;
using graph::Padding;
using graph::TensorShape;

constexpr int kIters = 1000;

// The backends under test, pinned against kReference.
std::vector<Backend> BackendsUnderTest() {
  std::vector<Backend> b{Backend::kBlocked};
  if (BackendAvailable(Backend::kAvx2)) b.push_back(Backend::kAvx2);
  return b;
}

// Bitwise comparison — 0.0f == -0.0f and NaN != NaN under operator==, so
// parity is checked on the raw bit patterns instead.
void ExpectBitIdentical(const Tensor& got, const Tensor& want,
                        const std::string& ctx) {
  ASSERT_EQ(got.shape(), want.shape()) << ctx;
  const std::vector<float> g = got.ToVector();
  const std::vector<float> w = want.ToVector();
  for (std::size_t i = 0; i < g.size(); ++i) {
    std::uint32_t gb, wb;
    std::memcpy(&gb, &g[i], sizeof(gb));
    std::memcpy(&wb, &w[i], sizeof(wb));
    ASSERT_EQ(gb, wb) << ctx << " first bit divergence at flat index " << i
                      << ": got " << g[i] << " want " << w[i];
  }
}

// Geometry of a (possibly channel-windowed) tensor, chosen once per
// iteration and reused so the per-backend outputs share layout.
struct WindowGeom {
  int extra = 0;   // backing_c - shape.c; 0 means plain contiguous
  int offset = 0;  // first backing channel of the window
};

WindowGeom RandomGeom(util::Rng& rng) {
  WindowGeom g;
  if (rng.NextBool(0.4)) {
    g.extra = rng.NextInt(1, 5);
    g.offset = rng.NextInt(0, g.extra);
  }
  return g;
}

// Materializes `shape` with geometry `geom`, filled from `fill`. The owning
// backing lives in `store`; the returned tensor is a view into it, so view
// semantics (pixel strides, channel offsets) reach the kernels even when
// geom is contiguous.
Tensor MakeTensor(const TensorShape& shape, const WindowGeom& geom,
                  util::Rng& fill, std::deque<Tensor>& store) {
  const int backing_c = shape.c + geom.extra;
  store.push_back(Tensor::Random(
      TensorShape{shape.n, shape.h, shape.w, backing_c}, fill));
  Tensor& b = store.back();
  if (geom.extra == 0) return Tensor::View(b.data(), b.size(), shape);
  return Tensor::ChannelView(b.data(), b.size(), shape, backing_c,
                             geom.offset);
}

ConvAttrs RandomConvAttrs(util::Rng& rng) {
  ConvAttrs a;
  a.kernel_h = rng.NextInt(1, 4);
  a.kernel_w = rng.NextInt(1, 4);
  a.stride = rng.NextInt(1, 2);
  a.dilation = rng.NextInt(1, 2);
  a.padding = rng.NextBool(0.5) ? Padding::kSame : Padding::kValid;
  return a;
}

// Smallest input extent so the op yields at least one output pixel.
int MinExtent(const ConvAttrs& a) {
  if (a.padding == Padding::kSame) return 1;
  return (std::max(a.kernel_h, a.kernel_w) - 1) * a.dilation + 1;
}

TEST(KernelParity, Conv2dFullAndPartial) {
  const std::vector<Backend> backends = BackendsUnderTest();
  util::Rng rng(0xC04Fu);
  for (int iter = 0; iter < kIters; ++iter) {
    const ConvAttrs attrs = RandomConvAttrs(rng);
    const int lo = MinExtent(attrs);
    // Rows up to 30 pixels past the minimum: full register tiles of 4 and
    // 8 output pixels, a pixel tail, and tiles broken by padding at both
    // borders, at stride 2 and dilation 2 too.
    const TensorShape in_shape{rng.NextInt(1, 2),
                               rng.NextInt(lo, lo + 6),
                               rng.NextInt(lo, lo + 30),
                               rng.NextInt(1, 12)};
    const int out_c = rng.NextInt(1, 72);
    const ConvWeights w = MakeConvWeights(1000u + iter, attrs.kernel_h,
                                          attrs.kernel_w, in_shape.c, out_c);
    const WindowGeom in_geom = RandomGeom(rng);
    const WindowGeom out_geom = RandomGeom(rng);
    util::Rng fill(7000u + iter);
    std::deque<Tensor> store;
    const Tensor in = MakeTensor(in_shape, in_geom, fill, store);
    const TensorShape out_shape =
        graph::InferConv2dShape(in_shape, attrs, out_c);

    // Either a single full conv, or the rewriter's shape of the call: two
    // channel-slice partials accumulated into a pre-seeded accumulator.
    const bool split = in_shape.c >= 2 && rng.NextBool(0.5);
    const int c0 = split ? rng.NextInt(1, in_shape.c - 1) : in_shape.c;

    bool have_ref = false;
    Tensor ref_out;
    Tensor ref_backing;
    const std::string ctx = "conv iter " + std::to_string(iter);
    for (const Backend b :
         std::vector<Backend>{Backend::kReference, backends.front(),
                              backends.back()}) {
      const KernelBackend& k = GetKernelBackend(b);
      util::Rng out_fill(9000u + iter);  // same garbage for every backend
      std::deque<Tensor> out_store;
      Tensor out = MakeTensor(out_shape, out_geom, out_fill, out_store);
      if (!split) {
        k.Conv2dInto(in, w, attrs, out);
      } else {
        const TensorShape s0{in_shape.n, in_shape.h, in_shape.w, c0};
        const TensorShape s1{in_shape.n, in_shape.h, in_shape.w,
                             in_shape.c - c0};
        // Slices are channel windows over the *same* storage `in` reads.
        store.push_back(in);  // owning deep copy, contiguous
        Tensor& whole = store.back();
        const Tensor x0 = Tensor::ChannelView(whole.data(), whole.size(),
                                              s0, in_shape.c, 0);
        const Tensor x1 = Tensor::ChannelView(whole.data(), whole.size(),
                                              s1, in_shape.c, c0);
        k.Conv2dPartial(x0, w, attrs, 0, /*overwrite=*/true,
                        /*add_bias=*/true, out);
        k.Conv2dPartial(x1, w, attrs, c0, /*overwrite=*/false,
                        /*add_bias=*/false, out);
      }
      if (!have_ref) {
        ref_out = out;  // deep owning snapshot of the oracle's result
        ref_backing = out_store.front();
        have_ref = true;
      } else {
        ExpectBitIdentical(out, ref_out, ctx + " backend " + ToString(b));
        ExpectBitIdentical(out_store.front(), ref_backing,
                           ctx + " backend " + ToString(b) + " backing");
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

TEST(KernelParity, DepthwiseFullAndPartial) {
  const std::vector<Backend> backends = BackendsUnderTest();
  util::Rng rng(0xD330u);
  for (int iter = 0; iter < kIters; ++iter) {
    const ConvAttrs attrs = RandomConvAttrs(rng);
    const int lo = MinExtent(attrs);
    const TensorShape in_shape{rng.NextInt(1, 2),
                               rng.NextInt(lo, lo + 6),
                               rng.NextInt(lo, lo + 6),
                               rng.NextInt(1, 40)};
    const DepthwiseWeights w = MakeDepthwiseWeights(
        2000u + iter, attrs.kernel_h, attrs.kernel_w, in_shape.c);
    const WindowGeom in_geom = RandomGeom(rng);
    const WindowGeom out_geom = RandomGeom(rng);
    util::Rng fill(7100u + iter);
    std::deque<Tensor> store;
    const Tensor in = MakeTensor(in_shape, in_geom, fill, store);
    const TensorShape out_shape =
        graph::InferDepthwiseShape(in_shape, attrs);
    const bool split = in_shape.c >= 2 && rng.NextBool(0.5);
    const int c0 = split ? rng.NextInt(1, in_shape.c - 1) : in_shape.c;

    bool have_ref = false;
    Tensor ref_out;
    Tensor ref_backing;
    const std::string ctx = "dw iter " + std::to_string(iter);
    for (const Backend b :
         std::vector<Backend>{Backend::kReference, backends.front(),
                              backends.back()}) {
      const KernelBackend& k = GetKernelBackend(b);
      util::Rng out_fill(9100u + iter);
      std::deque<Tensor> out_store;
      Tensor out = MakeTensor(out_shape, out_geom, out_fill, out_store);
      if (!split) {
        k.DepthwiseConv2dInto(in, w, attrs, out);
      } else {
        const TensorShape s0{in_shape.n, in_shape.h, in_shape.w, c0};
        const TensorShape s1{in_shape.n, in_shape.h, in_shape.w,
                             in_shape.c - c0};
        store.push_back(in);
        Tensor& whole = store.back();
        const Tensor x0 = Tensor::ChannelView(whole.data(), whole.size(),
                                              s0, in_shape.c, 0);
        const Tensor x1 = Tensor::ChannelView(whole.data(), whole.size(),
                                              s1, in_shape.c, c0);
        k.DepthwiseConv2dPartial(x0, w, attrs, 0, out, 0);
        k.DepthwiseConv2dPartial(x1, w, attrs, c0, out, c0);
      }
      if (!have_ref) {
        ref_out = out;
        ref_backing = out_store.front();
        have_ref = true;
      } else {
        ExpectBitIdentical(out, ref_out, ctx + " backend " + ToString(b));
        ExpectBitIdentical(out_store.front(), ref_backing,
                           ctx + " backend " + ToString(b) + " backing");
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

// Every output-channel count below two vectors of the widest build (AVX2,
// 8 lanes), so every partial-vector tail, narrow outputs included, runs on
// every backend at every stride and dilation: once overwriting with the
// bias added, once accumulating into a seeded accumulator without it. The
// tail's last weight rows are the kernel's last floats, so its final rows
// take the partial weight load. Rows of 29 input pixels hold whole tiles,
// a pixel tail and border pixels. The outputs are channel windows,
// compared over their whole backing store.
TEST(KernelParity, Conv2dEveryTailWidth) {
  const std::vector<Backend> backends = BackendsUnderTest();
  struct Geometry {
    int kernel;
    int stride;
    int dilation;
    Padding padding;
  };
  const Geometry geometries[] = {{1, 1, 1, Padding::kValid},
                                 {3, 1, 1, Padding::kSame},
                                 {3, 2, 1, Padding::kSame},
                                 {3, 1, 2, Padding::kSame},
                                 {5, 2, 1, Padding::kValid}};
  const WindowGeom out_geom{/*extra=*/3, /*offset=*/1};
  int seed = 0;
  for (const Geometry& geo : geometries) {
    ConvAttrs attrs;
    attrs.kernel_h = attrs.kernel_w = geo.kernel;
    attrs.stride = geo.stride;
    attrs.dilation = geo.dilation;
    attrs.padding = geo.padding;
    for (int out_c = 1; out_c < 16; ++out_c) {
      for (const bool overwrite : {true, false}) {
        ++seed;
        const TensorShape in_shape{1, 6, 29, 1 + seed % 7};
        const ConvWeights w = MakeConvWeights(5000u + seed, geo.kernel,
                                              geo.kernel, in_shape.c, out_c);
        util::Rng fill(7300u + seed);
        std::deque<Tensor> store;
        const Tensor in = MakeTensor(in_shape, WindowGeom{}, fill, store);
        const TensorShape out_shape =
            graph::InferConv2dShape(in_shape, attrs, out_c);
        const std::string ctx = "k" + std::to_string(geo.kernel) + " s" +
                                std::to_string(geo.stride) + " d" +
                                std::to_string(geo.dilation) + " out_c " +
                                std::to_string(out_c) +
                                (overwrite ? " overwrite" : " accumulate");
        Tensor ref_backing;
        for (const Backend b :
             std::vector<Backend>{Backend::kReference, backends.front(),
                                  backends.back()}) {
          util::Rng out_fill(9300u + seed);  // same accumulator everywhere
          std::deque<Tensor> out_store;
          Tensor out = MakeTensor(out_shape, out_geom, out_fill, out_store);
          GetKernelBackend(b).Conv2dPartial(in, w, attrs, /*ic_offset=*/0,
                                            overwrite,
                                            /*add_bias=*/overwrite, out);
          if (b == Backend::kReference) {
            ref_backing = out_store.front();
          } else {
            ExpectBitIdentical(out_store.front(), ref_backing,
                               ctx + " backend " + ToString(b) + " backing");
            if (::testing::Test::HasFailure()) return;
          }
        }
      }
    }
  }
}

// Kernel heights and widths past 16 — the graph format puts no cap on
// them — run on every backend, bit-identical to the reference.
TEST(KernelParity, TallAndWideKernels) {
  const std::vector<Backend> backends = BackendsUnderTest();
  const TensorShape in_shape{1, 20, 19, 5};
  const int out_c = 37;
  int seed = 0;
  for (const auto& [kh, kw] : {std::pair{17, 1}, {1, 17}, {17, 17}}) {
    for (const Padding padding : {Padding::kSame, Padding::kValid}) {
      ++seed;
      ConvAttrs attrs;
      attrs.kernel_h = kh;
      attrs.kernel_w = kw;
      attrs.padding = padding;
      const ConvWeights cw =
          MakeConvWeights(3000u + seed, kh, kw, in_shape.c, out_c);
      const DepthwiseWeights dw =
          MakeDepthwiseWeights(4000u + seed, kh, kw, in_shape.c);
      util::Rng fill(7200u + seed);
      const Tensor in = Tensor::Random(in_shape, fill);
      const KernelBackend& ref = GetKernelBackend(Backend::kReference);
      Tensor conv_want(graph::InferConv2dShape(in_shape, attrs, out_c));
      Tensor dw_want(graph::InferDepthwiseShape(in_shape, attrs));
      ref.Conv2dInto(in, cw, attrs, conv_want);
      ref.DepthwiseConv2dInto(in, dw, attrs, dw_want);
      for (const Backend b : backends) {
        const KernelBackend& k = GetKernelBackend(b);
        const std::string ctx = std::to_string(kh) + "x" +
                                std::to_string(kw) + " kernel, backend " +
                                ToString(b);
        Tensor conv_got(conv_want.shape());
        Tensor dw_got(dw_want.shape());
        k.Conv2dInto(in, cw, attrs, conv_got);
        k.DepthwiseConv2dInto(in, dw, attrs, dw_got);
        ExpectBitIdentical(conv_got, conv_want, "conv " + ctx);
        ExpectBitIdentical(dw_got, dw_want, "dw " + ctx);
      }
    }
  }
}

// One shared driver for the ops whose call shape is (inputs...) -> out.
template <typename RunFn>
void ElementwiseStyleParity(std::uint64_t seed, const char* what,
                            RunFn&& run) {
  util::Rng rng(seed);
  for (int iter = 0; iter < kIters; ++iter) {
    const Tensor* first = nullptr;
    Tensor snapshot;
    const std::string ctx = std::string(what) + " iter " +
                            std::to_string(iter);
    const std::uint64_t iter_salt = seed * 31u + iter;
    // Re-seed per backend so every backend sees bit-identical inputs.
    for (const Backend b : std::vector<Backend>{
             Backend::kReference, BackendsUnderTest().front(),
             BackendsUnderTest().back()}) {
      util::Rng shape_rng(iter_salt);
      util::Rng fill(iter_salt ^ 0x9e3779b97f4a7c15ull);
      Tensor out = run(GetKernelBackend(b), shape_rng, fill);
      if (first == nullptr) {
        snapshot = out;  // deep copy
        first = &snapshot;
      } else {
        ExpectBitIdentical(out, *first, ctx + " backend " + ToString(b));
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

TEST(KernelParity, ConcatAddMul) {
  ElementwiseStyleParity(
      0xCA7u, "concat/add/mul",
      [](const KernelBackend& k, util::Rng& rng, util::Rng& fill) {
        const TensorShape base{rng.NextInt(1, 2), rng.NextInt(1, 6),
                               rng.NextInt(1, 6), rng.NextInt(1, 40)};
        const int num = rng.NextInt(2, 4);
        const int op = rng.NextInt(0, 2);  // 0=concat, 1=add, 2=mul
        std::deque<Tensor> store;
        std::vector<const Tensor*> ins;
        int total_c = 0;
        for (int i = 0; i < num; ++i) {
          TensorShape s = base;
          if (op == 0) s.c = rng.NextInt(1, 40);  // concat: ragged channels
          total_c += s.c;
          const WindowGeom geom = RandomGeom(rng);
          store.push_back(MakeTensor(s, geom, fill, store));
          ins.push_back(&store.back());
        }
        TensorShape out_shape = base;
        if (op == 0) out_shape.c = total_c;
        const WindowGeom out_geom = RandomGeom(rng);
        Tensor out = MakeTensor(out_shape, out_geom, fill, store);
        if (op == 0) {
          k.ConcatInto(ins, out);
        } else if (op == 1) {
          k.AddInto(ins, out);
        } else {
          k.MulInto(ins, out);
        }
        return Tensor(out);  // deep copy outlives store
      });
}

TEST(KernelParity, ReluAndBatchNorm) {
  ElementwiseStyleParity(
      0xBEEFu, "relu/bn",
      [](const KernelBackend& k, util::Rng& rng, util::Rng& fill) {
        const TensorShape s{rng.NextInt(1, 2), rng.NextInt(1, 7),
                            rng.NextInt(1, 7), rng.NextInt(1, 40)};
        std::deque<Tensor> store;
        const Tensor in = MakeTensor(s, RandomGeom(rng), fill, store);
        Tensor out = MakeTensor(s, RandomGeom(rng), fill, store);
        if (rng.NextBool(0.5)) {
          k.ReluInto(in, out);
        } else {
          const BatchNormWeights w =
              MakeBatchNormWeights(rng.NextInt(0, 1 << 20), s.c);
          k.BatchNormInto(in, w, out);
        }
        return Tensor(out);
      });
}

TEST(KernelParity, Pooling) {
  ElementwiseStyleParity(
      0xF001u, "pool",
      [](const KernelBackend& k, util::Rng& rng, util::Rng& fill) {
        ConvAttrs attrs = RandomConvAttrs(rng);
        attrs.dilation = 1;  // pooling contract: dilation unused
        const int lo = MinExtent(attrs);
        const TensorShape s{rng.NextInt(1, 2), rng.NextInt(lo, lo + 6),
                            rng.NextInt(lo, lo + 6), rng.NextInt(1, 40)};
        std::deque<Tensor> store;
        const Tensor in = MakeTensor(s, RandomGeom(rng), fill, store);
        const int op = rng.NextInt(0, 2);  // 0=max, 1=avg, 2=gap
        if (op == 2) {
          Tensor out = MakeTensor(TensorShape{s.n, 1, 1, s.c},
                                  RandomGeom(rng), fill, store);
          k.GlobalAvgPool2dInto(in, out);
          return Tensor(out);
        }
        const TensorShape out_shape = graph::InferPoolShape(s, attrs);
        Tensor out = MakeTensor(out_shape, RandomGeom(rng), fill, store);
        if (op == 0) {
          k.MaxPool2dInto(in, attrs, out);
        } else {
          k.AvgPool2dInto(in, attrs, out);
        }
        return Tensor(out);
      });
}

TEST(KernelParity, Dense) {
  ElementwiseStyleParity(
      0xDE45u, "dense",
      [](const KernelBackend& k, util::Rng& rng, util::Rng& fill) {
        const TensorShape s{rng.NextInt(1, 2), rng.NextInt(1, 5),
                            rng.NextInt(1, 5), rng.NextInt(1, 10)};
        const int units = rng.NextInt(1, 72);
        const DenseWeights w = MakeDenseWeights(rng.NextInt(0, 1 << 20),
                                                s.h * s.w * s.c, units);
        std::deque<Tensor> store;
        const Tensor in = MakeTensor(s, RandomGeom(rng), fill, store);
        Tensor out = MakeTensor(TensorShape{s.n, 1, 1, units},
                                RandomGeom(rng), fill, store);
        k.DenseInto(in, w, out);
        return Tensor(out);
      });
}

// out may alias any input — the contract the executors' in-place Relu /
// BatchNorm / fused-cell chains rely on. Each backend gets its own fresh
// copy of the aliased storage.
TEST(KernelParity, AliasedElementwiseMatchesReference) {
  util::Rng rng(0xA11A5u);
  for (int iter = 0; iter < 200; ++iter) {
    const TensorShape s{1, rng.NextInt(1, 6), rng.NextInt(1, 6),
                        rng.NextInt(1, 40)};
    util::Rng fill(5000u + iter);
    const Tensor a = Tensor::Random(s, fill);
    const Tensor b = Tensor::Random(s, fill);
    const int op = rng.NextInt(0, 2);  // 0=add, 1=mul, 2=relu

    const Tensor* first = nullptr;
    Tensor snapshot;
    for (const Backend back : std::vector<Backend>{
             Backend::kReference, BackendsUnderTest().front(),
             BackendsUnderTest().back()}) {
      const KernelBackend& k = GetKernelBackend(back);
      Tensor x = a;  // fresh aliased storage per backend
      const Tensor y = b;
      if (op == 0) {
        k.AddInto({&x, &y}, x);
      } else if (op == 1) {
        k.MulInto({&x, &y}, x);
      } else {
        k.ReluInto(x, x);
      }
      if (first == nullptr) {
        snapshot = x;
        first = &snapshot;
      } else {
        ExpectBitIdentical(x, *first,
                           "alias iter " + std::to_string(iter) +
                               " backend " + ToString(back));
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

// Special values: NaN, infinities, signed zeros, denormals must flow
// through every backend exactly as the reference propagates them.
TEST(KernelParity, SpecialValuesBitExact) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  constexpr float kDen = std::numeric_limits<float>::denorm_min();
  const std::vector<float> specials{kNan,  -kNan, kInf,  -kInf, 0.0f,
                                    -0.0f, kDen,  -kDen, 1.0f,  -1.0f,
                                    3.5f,  -2.25f};
  const TensorShape s{1, 2, 3, 17};  // 102 elements, odd lane tail
  Tensor in(s);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in.data()[i] = specials[i % specials.size()];
  }
  const BatchNormWeights bn = MakeBatchNormWeights(42, s.c);

  for (const Backend b : BackendsUnderTest()) {
    const KernelBackend& k = GetKernelBackend(b);
    const KernelBackend& ref = GetKernelBackend(Backend::kReference);
    Tensor got(s), want(s);
    k.ReluInto(in, got);
    ref.ReluInto(in, want);
    ExpectBitIdentical(got, want, std::string("relu specials ") +
                                      ToString(b));
    k.BatchNormInto(in, bn, got);
    ref.BatchNormInto(in, bn, want);
    ExpectBitIdentical(got, want, std::string("bn specials ") +
                                      ToString(b));
    k.AddInto({&in, &in}, got);
    ref.AddInto({&in, &in}, want);
    ExpectBitIdentical(got, want, std::string("add specials ") +
                                      ToString(b));
  }
}

// The dispatch/resolution surface itself.
TEST(KernelDispatch, ResolutionIsTotalAndConsistent) {
  for (const Backend b : {Backend::kReference, Backend::kBlocked,
                          Backend::kAvx2, Backend::kAuto}) {
    const Backend r = ResolveBackend(b);
    EXPECT_NE(r, Backend::kAuto);
    EXPECT_TRUE(BackendAvailable(r)) << ToString(b);
    EXPECT_EQ(GetKernelBackend(b).id, r) << ToString(b);
    EXPECT_EQ(ParseBackend(ToString(b)), b);
  }
  EXPECT_EQ(ResolveBackend(Backend::kReference), Backend::kReference);
  EXPECT_EQ(ResolveBackend(Backend::kBlocked), Backend::kBlocked);
  EXPECT_FALSE(ParseBackend("neon").has_value());
  // kAuto must not resolve to the (slow) reference oracle.
  EXPECT_NE(ResolveBackend(Backend::kAuto), Backend::kReference);
  // Alignment contract: reference is scalar, everything else vectorized.
  EXPECT_EQ(PlacementAlignment(Backend::kReference),
            static_cast<std::int64_t>(sizeof(float)));
  EXPECT_EQ(PlacementAlignment(Backend::kBlocked), 32);
  const std::vector<Backend> avail = AvailableBackends();
  EXPECT_GE(avail.size(), 2u);  // blocked + reference at minimum
}

}  // namespace
}  // namespace serenity::runtime
