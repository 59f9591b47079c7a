// The vectorized kernels, one source compiled twice (CMakeLists.txt):
//
//   * namespace blocked — the baseline build, Backend::kBlocked. Always
//     built; the fallback every unavailable ISA build resolves to.
//   * namespace avx2    — the same source with SERENITY_KERNELS_AVX2
//     defined, Backend::kAvx2. Only the kernel bodies below the headers are
//     compiled for AVX2 (#pragma GCC target), so no inline function of a
//     header gets a VEX-encoded weak copy in that object; the dispatch
//     table's cpuid guard is the only way in (runtime/kernel_backend.cc).
//
// Same arithmetic as runtime/kernels.cc, restructured for speed:
//
//   * Raw pixel-run pointers (Tensor::PixelRun) and clamped tap ranges
//     (internal::FirstValidTap/EndValidTap): the padding checks leave the
//     inner loops, and each output pixel looks its tap rows up once.
//   * GCC/Clang generic vectors as wide as the build's native register,
//     across *independent* outputs — output channels, units, channels — the
//     dimension that is contiguous in the weight layouts ([kh][kw][ic][oc],
//     [kh][kw][c], [in][units]). Every op walks its outputs in chunks of 4
//     vectors, then 1 vector, then the scalar tail (ForEachChunk).
//   * Conv2d register tiles: a run of output pixels with the same valid tap
//     columns is computed as one tile (ForEachPixelTile, ForEachTileChunk),
//     so each weight vector loaded feeds one accumulator per pixel.
//
// Bit-identity with the reference backend holds because each output
// element's summation order is untouched: taps still run (ky, kx, ic)
// ascending, dense still runs i ascending, and only *independent outputs*
// (channels, pixels) are computed side by side. No FMA: plain mul-then-add,
// and this file is compiled with -ffp-contract=off so no target ISA can fuse
// them (DESIGN.md "Bit-identity contract and the ULP policy").
//
// Everything writes through caller-provided views (arena placements); no
// function here allocates.
#include <algorithm>
#include <cstddef>
#include <cstring>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "runtime/kernels_backends.h"
#include "util/logging.h"

#if defined(SERENITY_KERNELS_AVX2)
#pragma GCC push_options
#pragma GCC target("avx2")
#define SERENITY_KERNELS_NS avx2
#else
#define SERENITY_KERNELS_NS blocked
#endif

namespace serenity::runtime::SERENITY_KERNELS_NS {

namespace {

// One native vector register of floats. GCC's C++ front end does not
// redefine __AVX__ under #pragma GCC target, so the AVX2 build names itself.
// A wider-than-native vector is lowered piecewise and runs several times
// slower, hence 16 bytes (SSE2, NEON) unless the build has AVX.
#if defined(__AVX__) || defined(SERENITY_KERNELS_AVX2)
constexpr std::size_t kVecBytes = 32;
#else
constexpr std::size_t kVecBytes = 16;
#endif
typedef float Vec __attribute__((vector_size(kVecBytes)));
constexpr int kLanes = static_cast<int>(kVecBytes / sizeof(float));

// Elementwise ops take their variadic inputs as row-pointer arrays on the
// stack (no per-call allocation); arity above this is a graph-construction
// bug, not a runtime condition.
constexpr int kMaxInputs = 16;

// Unaligned loads and stores for V = Vec or V = float: channel windows land
// mid-vector by design, and memcpy compiles to one move either way.
template <typename V>
V Load(const float* p) {
  V v;
  std::memcpy(&v, p, sizeof(V));
  return v;
}

template <typename V>
void Store(float* p, const V& v) {
  std::memcpy(p, &v, sizeof(V));
}

// x in every lane. x - 0 is x for every float, -0.0f and NaN included.
template <typename V>
V Splat(float x) {
  return x - V{};
}

// std::max(a, b) lane by lane: b only where a < b, so a NaN in b yields a.
template <typename V>
V Max(const V& a, const V& b) {
  return a < b ? b : a;
}

// The first W floats at p, the lanes past them zero (LoadFirst), and their
// store back (StoreFirst); with W the whole vector they are Load and Store.
// A partial load is built lane by lane: a memcpy of fewer floats than the
// vector holds goes through memory, and the vector reload then stalls on
// the stores.
template <typename V, int W>
V LoadFirst(const float* p) {
  if constexpr (W * sizeof(float) == sizeof(V)) {
    return Load<V>(p);
  } else {
    V v{};
    for (int i = 0; i < W; ++i) v[i] = p[i];
    return v;
  }
}

template <typename V, int W>
void StoreFirst(float* p, const V& v) {
  std::memcpy(p, &v, W * sizeof(float));
}

// `kCount` accumulators of type `Type`, `kStep` floats apart, each holding
// `kWidth` outputs: all of its lanes, or the first kWidth < kLanes lanes of
// a partial vector, whose other lanes are computed and never stored.
template <typename V, int N,
          int W = static_cast<int>(sizeof(V) / sizeof(float))>
struct Chunk {
  using Type = V;
  static constexpr int kCount = N;
  static constexpr int kStep = static_cast<int>(sizeof(V) / sizeof(float));
  static constexpr int kWidth = W;
};

// body(first, Tail<N + 1>), for the one N + 1 that equals tail.
template <template <int> class Tail, typename Body, int... N>
void ForTail(int first, int tail, const Body& body,
             std::integer_sequence<int, N...>) {
  ((tail == N + 1 ? body(first, Tail<N + 1>{}) : void()), ...);
}

template <int W>
using ScalarTail = Chunk<float, W>;
template <int W>
using PartialTail = Chunk<Vec, 1, W>;

// Calls body(first, Chunk) over [0, count): 4 vectors at a time, then 1,
// then the scalar tail (fewer than kLanes floats) in one call. The tail's
// accumulators are as independent as a vector's lanes; walking its outputs
// one at a time instead left a 6-channel conv latency-bound on one add
// chain, over 3x slower.
template <typename Body>
void ForEachChunk(int count, const Body& body) {
  int i = 0;
  for (; i + 4 * kLanes <= count; i += 4 * kLanes) body(i, Chunk<Vec, 4>{});
  for (; i + kLanes <= count; i += kLanes) body(i, Chunk<Vec, 1>{});
  ForTail<ScalarTail>(i, count - i, body,
                      std::make_integer_sequence<int, kLanes - 1>{});
}

// A run of P neighbouring output pixels of one row.
template <int P>
using Pixels = std::integral_constant<int, P>;

// Accumulators per register tile: with the weight vectors and a broadcast
// they fit the 16 vector registers of SSE2 and AVX2. 4 pixels x 2 vectors
// load each weight vector once for 4 accumulators, where one pixel with 4
// vectors loads it for one.
constexpr int kTileAccumulators = 8;

// ForEachChunk for a tile of P output pixels. Calls body(p0, Pixels<S>,
// first, Chunk) over the channels [0, count) of the tile's pixels
// [p0, p0 + S): 4 vectors at a time, then 2, then 1, then the tail as one
// partial vector (PartialTail), each in groups of S pixels that hold at
// most kTileAccumulators accumulators. A partial vector's lanes past the
// tail are computed and never stored; a scalar tail would need S x tail
// accumulators and spill.
template <int P, typename Body>
void ForEachTileChunk(int count, const Body& body) {
  const auto groups = [&](int first, auto chunk) {
    constexpr int kGroup =
        std::min(P, kTileAccumulators / decltype(chunk)::kCount);
    for (int p = 0; p < P; p += kGroup) body(p, Pixels<kGroup>{}, first, chunk);
  };
  int i = 0;
  for (; i + 4 * kLanes <= count; i += 4 * kLanes) groups(i, Chunk<Vec, 4>{});
  for (; i + 2 * kLanes <= count; i += 2 * kLanes) groups(i, Chunk<Vec, 2>{});
  for (; i + kLanes <= count; i += kLanes) groups(i, Chunk<Vec, 1>{});
  ForTail<PartialTail>(i, count - i, groups,
                       std::make_integer_sequence<int, kLanes - 1>{});
}

// The valid taps of one output pixel: kernel taps [ky0, ky0 + rows) x
// [kx0, kx0 + cols). Tap (ky0 + r, kx0 + c) is kernel tap Index(r, c) in
// row-major (ky, kx) order and reads the input pixel at At(r, c). The first
// and the last tap row are bounds-checked through PixelRun; the rows
// between them lie between the two.
struct PixelTaps {
  int ky0 = 0;
  int kx0 = 0;
  int rows = 0;
  int cols = 0;
  int kernel_w = 0;
  const float* origin = nullptr;
  std::ptrdiff_t dy = 0;
  std::ptrdiff_t dx = 0;

  std::size_t Index(int r, int c) const {
    return static_cast<std::size_t>(ky0 + r) *
               static_cast<std::size_t>(kernel_w) +
           static_cast<std::size_t>(kx0 + c);
  }
  const float* At(int r, int c) const { return origin + r * dy + c * dx; }
};

// Inlined so each kernel specializes it (strided convs with few input
// channels ran ~10% slower through a call).
[[gnu::always_inline]] inline PixelTaps TapsAt(const Tensor& input, int n,
                                               int ph, int pw, int kernel_h,
                                               int kernel_w, int dilation) {
  const graph::TensorShape in = input.shape();
  PixelTaps t;
  t.kernel_w = kernel_w;
  t.ky0 = internal::FirstValidTap(ph, dilation);
  t.kx0 = internal::FirstValidTap(pw, dilation);
  const int ky_end = internal::EndValidTap(ph, dilation, kernel_h, in.h);
  const int kx_end = internal::EndValidTap(pw, dilation, kernel_w, in.w);
  if (t.ky0 >= ky_end || t.kx0 >= kx_end) return t;
  t.rows = ky_end - t.ky0;
  t.cols = kx_end - t.kx0;
  const int iw0 = pw + t.kx0 * dilation;
  const int run = (t.cols - 1) * dilation + 1;
  t.origin = input.PixelRun(n, ph + t.ky0 * dilation, iw0, run);
  if (t.rows > 1) input.PixelRun(n, ph + (ky_end - 1) * dilation, iw0, run);
  t.dx = static_cast<std::ptrdiff_t>(dilation) * input.pixel_stride();
  t.dy = t.dx * in.w;
  return t;
}

// Walks the output pixels [0, width) of one row and, for each, the output
// channels [0, channels). Calls body(ow, taps, p, Pixels<S>, first, Chunk)
// for the pixels [ow + p, ow + p + S) and the channels [first, first +
// chunk), where `taps` are pixel ow's and pixel ow + p reads its taps
// p * stride input pixels right of them. A run of P pixels is tiled when
// its first and last pixel have the same valid tap columns, so every pixel
// between them does (the clamped range only moves one way along a row);
// both ends' taps are looked up, with their PixelRun bounds checks. The
// border pixels and the row's tail go one at a time. Narrow outputs fill
// one (partial) vector per pixel, so their runs take more pixels.
template <typename TapsFn, typename Body>
void ForEachPixelTile(int width, int channels, const TapsFn& taps_at,
                      const Body& body) {
  const auto walk = [&](auto tile) {
    constexpr int P = decltype(tile)::value;
    for (int ow = 0; ow < width;) {
      const PixelTaps taps = taps_at(ow);
      const auto run = [&](auto pixels) {
        ForEachTileChunk<decltype(pixels)::value>(
            channels, [&](int p, auto group, int first, auto chunk) {
              body(ow, taps, p, group, first, chunk);
            });
        ow += decltype(pixels)::value;
      };
      const bool tiled = ow + P <= width && [&] {
        const PixelTaps last = taps_at(ow + P - 1);
        return last.kx0 == taps.kx0 && last.cols == taps.cols;
      }();
      if (tiled) {
        run(Pixels<P>{});
      } else {
        run(Pixels<1>{});
      }
    }
  };
  if (channels < kLanes) {
    walk(Pixels<8>{});
  } else {
    walk(Pixels<4>{});
  }
}

void CheckSameShape(const std::vector<const Tensor*>& inputs) {
  SERENITY_CHECK_GE(inputs.size(), 2u);
  SERENITY_CHECK_LE(inputs.size(), static_cast<std::size_t>(kMaxInputs));
  for (const Tensor* t : inputs) {
    SERENITY_CHECK(t->shape() == inputs[0]->shape());
  }
}

}  // namespace

void Conv2dPartial(const Tensor& input, const ConvWeights& weights,
                   const graph::ConvAttrs& attrs, int ic_offset,
                   bool overwrite, bool add_bias, Tensor& acc) {
  const graph::TensorShape in = input.shape();
  const graph::TensorShape out = acc.shape();
  SERENITY_CHECK_EQ(out.c, weights.out_c);
  SERENITY_CHECK_LE(ic_offset + in.c, weights.in_c);
  const internal::Padding2d pad =
      internal::ComputePadding(in, attrs, out.h, out.w);
  const float* kern = weights.kernel.data();
  const float* kern_end = kern + weights.kernel.size();
  const float* bias = weights.bias.data();
  const std::size_t kern_in_c = static_cast<std::size_t>(weights.in_c);
  const std::size_t kern_out_c = static_cast<std::size_t>(weights.out_c);

  // Floats between the weights of kernel taps (ky, kx) and (ky, kx + 1),
  // and between those of taps (ky, kx) and (ky + 1, kx).
  const std::size_t tap_stride = kern_in_c * kern_out_c;
  const std::size_t row_stride =
      static_cast<std::size_t>(attrs.kernel_w) * tap_stride;
  const int acc_stride = acc.pixel_stride();
  // Floats between the input pixels one tap reads for neighbouring outputs.
  const std::ptrdiff_t x_step =
      static_cast<std::ptrdiff_t>(attrs.stride) * input.pixel_stride();

  for (int n = 0; n < out.n; ++n) {
    for (int oh = 0; oh < out.h; ++oh) {
      float* acc_row = acc.PixelRun(n, oh, 0, out.w);
      const auto taps_at = [&](int ow) {
        return TapsAt(input, n, oh * attrs.stride - pad.top,
                      ow * attrs.stride - pad.left, attrs.kernel_h,
                      attrs.kernel_w, attrs.dilation);
      };
      ForEachPixelTile(out.w, out.c, taps_at, [&](int ow,
                                                  const PixelTaps& taps,
                                                  int p0, auto pixels, int oc,
                                                  auto chunk) {
        constexpr int P = decltype(pixels)::value;
        using C = decltype(chunk);
        using V = typename C::Type;
        constexpr int K = C::kCount;
        constexpr int W = C::kWidth;
        float* acc_px =
            acc_row + static_cast<std::ptrdiff_t>(ow + p0) * acc_stride + oc;
        V a[P][K];
        for (int p = 0; p < P; ++p) {
          for (int v = 0; v < K; ++v) {
            a[p][v] = overwrite ? V{}
                                : LoadFirst<V, W>(acc_px + p * acc_stride +
                                                  v * C::kStep);
          }
        }
        const float* w_taps =
            kern + (taps.Index(0, 0) * kern_in_c + ic_offset) * kern_out_c +
            oc;
        for (int r = 0; r < taps.rows; ++r) {
          for (int c = 0; c < taps.cols; ++c) {
            const float* x = taps.At(r, c) + p0 * x_step;
            const float* w = w_taps + r * row_stride + c * tap_stride;
            const auto mac = [&](int ic, const V(&wv)[K]) {
              for (int p = 0; p < P; ++p) {
                const float xp = x[p * x_step + ic];
                for (int v = 0; v < K; ++v) a[p][v] += xp * wv[v];
              }
            };
            // A partial vector still loads whole weight rows while they lie
            // inside the kernel; the lanes past its width read the next
            // row's weights. Only the kernel's last rows load partially.
            int full = in.c;
            if constexpr (W < C::kStep) {
              const std::ptrdiff_t room = kern_end - w - C::kStep;
              const std::ptrdiff_t rows =
                  room < 0 ? 0
                           : room / static_cast<std::ptrdiff_t>(kern_out_c) +
                                 1;
              full = static_cast<int>(std::min<std::ptrdiff_t>(in.c, rows));
            }
            int ic = 0;
            for (; ic < full; ++ic, w += kern_out_c) {
              V wv[K];
              for (int v = 0; v < K; ++v) wv[v] = Load<V>(w + v * C::kStep);
              mac(ic, wv);
            }
            if constexpr (W < C::kStep) {
              for (; ic < in.c; ++ic, w += kern_out_c) {
                const V wv[K] = {LoadFirst<V, W>(w)};
                mac(ic, wv);
              }
            }
          }
        }
        for (int p = 0; p < P; ++p) {
          for (int v = 0; v < K; ++v) {
            if (add_bias) a[p][v] += LoadFirst<V, W>(bias + oc + v * C::kStep);
            StoreFirst<V, W>(acc_px + p * acc_stride + v * C::kStep, a[p][v]);
          }
        }
      });
    }
  }
}

void DepthwiseConv2dPartial(const Tensor& input,
                            const DepthwiseWeights& weights,
                            const graph::ConvAttrs& attrs,
                            int weight_c_offset, Tensor& out,
                            int out_c_offset) {
  const graph::TensorShape in = input.shape();
  SERENITY_CHECK_LE(weight_c_offset + in.c, weights.c);
  SERENITY_CHECK_LE(out_c_offset + in.c, out.shape().c);
  const internal::Padding2d pad =
      internal::ComputePadding(in, attrs, out.shape().h, out.shape().w);
  const float* kern = weights.kernel.data() + weight_c_offset;
  const float* bias = weights.bias.data() + weight_c_offset;
  const std::size_t kern_c = static_cast<std::size_t>(weights.c);

  for (int n = 0; n < out.shape().n; ++n) {
    for (int oh = 0; oh < out.shape().h; ++oh) {
      for (int ow = 0; ow < out.shape().w; ++ow) {
        const PixelTaps taps =
            TapsAt(input, n, oh * attrs.stride - pad.top,
                   ow * attrs.stride - pad.left, attrs.kernel_h,
                   attrs.kernel_w, attrs.dilation);
        float* out_px = out.PixelRun(n, oh, ow, 1) + out_c_offset;
        ForEachChunk(in.c, [&](int c0, auto chunk) {
          using C = decltype(chunk);
          using V = typename C::Type;
          V a[C::kCount];
          for (int v = 0; v < C::kCount; ++v) {
            a[v] = Load<V>(bias + c0 + v * C::kStep);
          }
          for (int r = 0; r < taps.rows; ++r) {
            for (int c = 0; c < taps.cols; ++c) {
              const float* x = taps.At(r, c) + c0;
              const float* w = kern + taps.Index(r, c) * kern_c + c0;
              for (int v = 0; v < C::kCount; ++v) {
                a[v] += Load<V>(x + v * C::kStep) * Load<V>(w + v * C::kStep);
              }
            }
          }
          for (int v = 0; v < C::kCount; ++v) {
            Store(out_px + c0 + v * C::kStep, a[v]);
          }
        });
      }
    }
  }
}

void DenseInto(const Tensor& input, const DenseWeights& weights,
               Tensor& out) {
  const graph::TensorShape in = input.shape();
  SERENITY_CHECK_EQ(in.NumElements() / in.n, weights.in);
  SERENITY_CHECK(out.shape() ==
                 (graph::TensorShape{in.n, 1, 1, weights.units}))
      << "Dense output shape mismatch";
  const float* kern = weights.kernel.data();
  const float* bias = weights.bias.data();
  const std::size_t units = static_cast<std::size_t>(weights.units);
  const int in_stride = input.pixel_stride();

  for (int n = 0; n < in.n; ++n) {
    float* out_px = out.PixelRun(n, 0, 0, 1);
    ForEachChunk(weights.units, [&](int u, auto chunk) {
      using C = decltype(chunk);
      using V = typename C::Type;
      V a[C::kCount];
      for (int v = 0; v < C::kCount; ++v) {
        a[v] = Load<V>(bias + u + v * C::kStep);
      }
      // w walks the flattened (h, w, c) kernel rows in logical order, so
      // each unit's summation order matches the reference exactly.
      const float* w = kern + u;
      for (int h = 0; h < in.h; ++h) {
        const float* in_row = input.PixelRun(n, h, 0, in.w);
        for (int x = 0; x < in.w; ++x) {
          const float* in_px =
              in_row + static_cast<std::ptrdiff_t>(x) * in_stride;
          for (int c = 0; c < in.c; ++c, w += units) {
            for (int v = 0; v < C::kCount; ++v) {
              a[v] += in_px[c] * Load<V>(w + v * C::kStep);
            }
          }
        }
      }
      for (int v = 0; v < C::kCount; ++v) {
        Store(out_px + u + v * C::kStep, a[v]);
      }
    });
  }
}

void ConcatInto(const std::vector<const Tensor*>& inputs, Tensor& out) {
  SERENITY_CHECK_GE(inputs.size(), 2u);
  graph::TensorShape cat_shape = inputs[0]->shape();
  cat_shape.c = 0;
  for (const Tensor* t : inputs) {
    SERENITY_CHECK_EQ(t->shape().n, inputs[0]->shape().n);
    SERENITY_CHECK_EQ(t->shape().h, inputs[0]->shape().h);
    SERENITY_CHECK_EQ(t->shape().w, inputs[0]->shape().w);
    cat_shape.c += t->shape().c;
  }
  SERENITY_CHECK(out.shape() == cat_shape) << "Concat output shape mismatch";
  const int os = out.pixel_stride();
  for (int n = 0; n < cat_shape.n; ++n) {
    for (int h = 0; h < cat_shape.h; ++h) {
      float* out_row = out.PixelRun(n, h, 0, cat_shape.w);
      int c_base = 0;
      for (const Tensor* t : inputs) {
        const int tc = t->shape().c;
        const int is = t->pixel_stride();
        const float* in_row = t->PixelRun(n, h, 0, cat_shape.w);
        for (int w = 0; w < cat_shape.w; ++w) {
          float* o = out_row + static_cast<std::ptrdiff_t>(w) * os + c_base;
          const float* x = in_row + static_cast<std::ptrdiff_t>(w) * is;
          for (int c = 0; c < tc; ++c) o[c] = x[c];
        }
        c_base += tc;
      }
    }
  }
}

namespace {

// Add and Mul: out = init (op) inputs[0] (op) inputs[1] ..., in input
// order. Every input of a chunk is read before the chunk is written, so
// `out` may alias any input (the in-place contract).
template <typename Op>
void FoldInto(const std::vector<const Tensor*>& inputs, float init,
              const Op& op, Tensor& out) {
  const graph::TensorShape s = inputs[0]->shape();
  const int num = static_cast<int>(inputs.size());
  const int os = out.pixel_stride();
  const float* rows[kMaxInputs];
  int strides[kMaxInputs];
  for (int t = 0; t < num; ++t) strides[t] = inputs[t]->pixel_stride();
  for (int n = 0; n < s.n; ++n) {
    for (int h = 0; h < s.h; ++h) {
      float* out_row = out.PixelRun(n, h, 0, s.w);
      for (int t = 0; t < num; ++t) {
        rows[t] = inputs[t]->PixelRun(n, h, 0, s.w);
      }
      for (int w = 0; w < s.w; ++w) {
        float* o = out_row + static_cast<std::ptrdiff_t>(w) * os;
        ForEachChunk(s.c, [&](int c, auto chunk) {
          using C = decltype(chunk);
          using V = typename C::Type;
          V a[C::kCount];
          for (int v = 0; v < C::kCount; ++v) a[v] = Splat<V>(init);
          for (int t = 0; t < num; ++t) {
            const float* x =
                rows[t] + static_cast<std::ptrdiff_t>(w) * strides[t] + c;
            for (int v = 0; v < C::kCount; ++v) {
              a[v] = op(a[v], Load<V>(x + v * C::kStep));
            }
          }
          for (int v = 0; v < C::kCount; ++v) {
            Store(o + c + v * C::kStep, a[v]);
          }
        });
      }
    }
  }
}

// out = fn(input values, their first channel), chunk by chunk.
template <typename Fn>
void MapInto(const Tensor& input, const Fn& fn, Tensor& out) {
  const graph::TensorShape s = input.shape();
  const int is = input.pixel_stride();
  const int os = out.pixel_stride();
  for (int n = 0; n < s.n; ++n) {
    for (int h = 0; h < s.h; ++h) {
      const float* in_row = input.PixelRun(n, h, 0, s.w);
      float* out_row = out.PixelRun(n, h, 0, s.w);
      for (int w = 0; w < s.w; ++w) {
        const float* x = in_row + static_cast<std::ptrdiff_t>(w) * is;
        float* o = out_row + static_cast<std::ptrdiff_t>(w) * os;
        ForEachChunk(s.c, [&](int c, auto chunk) {
          using C = decltype(chunk);
          using V = typename C::Type;
          for (int v = 0; v < C::kCount; ++v) {
            const int j = c + v * C::kStep;
            Store(o + j, fn(Load<V>(x + j), j));
          }
        });
      }
    }
  }
}

}  // namespace

void AddInto(const std::vector<const Tensor*>& inputs, Tensor& out) {
  CheckSameShape(inputs);
  SERENITY_CHECK(out.shape() == inputs[0]->shape())
      << "Add output shape mismatch";
  FoldInto(
      inputs, 0.0f, [](const auto& a, const auto& x) { return a + x; }, out);
}

void MulInto(const std::vector<const Tensor*>& inputs, Tensor& out) {
  CheckSameShape(inputs);
  SERENITY_CHECK(out.shape() == inputs[0]->shape())
      << "Mul output shape mismatch";
  FoldInto(
      inputs, 1.0f, [](const auto& a, const auto& x) { return a * x; }, out);
}

void ReluInto(const Tensor& input, Tensor& out) {
  SERENITY_CHECK(out.shape() == input.shape()) << "Relu output shape mismatch";
  MapInto(
      input,
      [](const auto& x, int) {
        using V = std::remove_cvref_t<decltype(x)>;
        return Max(V{}, x);
      },
      out);
}

void BatchNormInto(const Tensor& input, const BatchNormWeights& weights,
                   Tensor& out) {
  SERENITY_CHECK_EQ(weights.scale.size(),
                    static_cast<std::size_t>(input.shape().c));
  SERENITY_CHECK(out.shape() == input.shape())
      << "BatchNorm output shape mismatch";
  const float* scale = weights.scale.data();
  const float* shift = weights.shift.data();
  MapInto(
      input,
      [&](const auto& x, int c) {
        using V = std::remove_cvref_t<decltype(x)>;
        return x * Load<V>(scale + c) + Load<V>(shift + c);
      },
      out);
}

namespace {

// Max and average pooling: out = finish(fold(init, taps), tap count) per
// channel, folding the valid taps in (ky, kx) order.
template <typename Fold, typename Finish>
void PoolInto(const Tensor& input, const graph::ConvAttrs& attrs, float init,
              const Fold& fold, const Finish& finish, Tensor& out) {
  const graph::TensorShape in = input.shape();
  const graph::TensorShape os = out.shape();
  SERENITY_CHECK(os == graph::InferPoolShape(in, attrs))
      << "Pool2d output shape mismatch";
  const internal::Padding2d pad =
      internal::ComputePadding(in, attrs, os.h, os.w);
  for (int n = 0; n < os.n; ++n) {
    for (int oh = 0; oh < os.h; ++oh) {
      for (int ow = 0; ow < os.w; ++ow) {
        const PixelTaps taps = TapsAt(
            input, n, oh * attrs.stride - pad.top,
            ow * attrs.stride - pad.left, attrs.kernel_h, attrs.kernel_w,
            /*dilation=*/1);
        const int count = taps.rows * taps.cols;
        float* out_px = out.PixelRun(n, oh, ow, 1);
        ForEachChunk(os.c, [&](int c0, auto chunk) {
          using C = decltype(chunk);
          using V = typename C::Type;
          V a[C::kCount];
          for (int v = 0; v < C::kCount; ++v) a[v] = Splat<V>(init);
          for (int r = 0; r < taps.rows; ++r) {
            for (int c = 0; c < taps.cols; ++c) {
              const float* x = taps.At(r, c) + c0;
              for (int v = 0; v < C::kCount; ++v) {
                a[v] = fold(a[v], Load<V>(x + v * C::kStep));
              }
            }
          }
          for (int v = 0; v < C::kCount; ++v) {
            Store(out_px + c0 + v * C::kStep, finish(a[v], count));
          }
        });
      }
    }
  }
}

}  // namespace

void MaxPool2dInto(const Tensor& input, const graph::ConvAttrs& attrs,
                   Tensor& out) {
  PoolInto(
      input, attrs, std::numeric_limits<float>::lowest(),
      [](const auto& a, const auto& x) { return Max(a, x); },
      [](const auto& a, int) { return a; }, out);
}

void AvgPool2dInto(const Tensor& input, const graph::ConvAttrs& attrs,
                   Tensor& out) {
  PoolInto(
      input, attrs, 0.0f, [](const auto& a, const auto& x) { return a + x; },
      [](const auto& a, int count) {
        // Average over the valid taps only (TFLite SAME).
        SERENITY_CHECK_GT(count, 0);
        return a / static_cast<float>(count);
      },
      out);
}

void GlobalAvgPool2dInto(const Tensor& input, Tensor& out) {
  const graph::TensorShape in = input.shape();
  SERENITY_CHECK(out.shape() == (graph::TensorShape{in.n, 1, 1, in.c}))
      << "GlobalAvgPool2d output shape mismatch";
  const float denom = static_cast<float>(in.h) * static_cast<float>(in.w);
  const int in_stride = input.pixel_stride();
  for (int n = 0; n < in.n; ++n) {
    float* out_px = out.PixelRun(n, 0, 0, 1);
    ForEachChunk(in.c, [&](int c0, auto chunk) {
      using C = decltype(chunk);
      using V = typename C::Type;
      V a[C::kCount];
      for (int v = 0; v < C::kCount; ++v) a[v] = V{};
      for (int h = 0; h < in.h; ++h) {
        const float* in_row = input.PixelRun(n, h, 0, in.w) + c0;
        for (int w = 0; w < in.w; ++w) {
          const float* x = in_row + static_cast<std::ptrdiff_t>(w) * in_stride;
          for (int v = 0; v < C::kCount; ++v) {
            a[v] += Load<V>(x + v * C::kStep);
          }
        }
      }
      for (int v = 0; v < C::kCount; ++v) {
        Store(out_px + c0 + v * C::kStep, a[v] / denom);
      }
    });
  }
}

}  // namespace serenity::runtime::SERENITY_KERNELS_NS

#if defined(SERENITY_KERNELS_AVX2)
#pragma GCC pop_options
#endif
