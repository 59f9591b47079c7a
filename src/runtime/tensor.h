// Dense float32 NHWC tensor for the runtime: an owning buffer or a
// non-owning view over external storage.
//
// The runtime exists to *prove semantics*, not to be fast: identity graph
// rewriting claims bit-level mathematical integrity (§3.3), and the tests
// execute a graph and its rewritten twin on identical synthetic weights and
// inputs, comparing outputs to tolerance. Plain nested loops keep every
// kernel auditable against the paper's equations.
//
// Two storage modes (DESIGN.md "Plan-driven execution"):
//   * Owning — the tensor holds its own zero-initialized buffer. What the
//     ReferenceExecutor materializes per graph buffer.
//   * View — the tensor aliases external storage it does not free. The
//     ArenaExecutor binds one view per activation buffer at its ArenaPlan
//     offset inside the preallocated arena block, so inference runs without
//     per-inference heap allocation. A *channel-window* view additionally
//     addresses channels [channel_offset, channel_offset + shape.c) of a
//     wider backing tensor (stride backing_c), which is how values living
//     inside a shared buffer — concat views, partial-depthwise slices — are
//     read in place instead of being copied out.
//
// Copying a tensor (copy constructor/assignment) always materializes an
// owning, contiguous deep copy: a view never silently aliases into a second
// tensor. Every element access is bounds-checked against both the logical
// shape and the backing span, so a view can never read or write outside the
// storage it was bound to — inside the arena executor that means no access
// escapes its planned [offset, offset + size) placement.
#ifndef SERENITY_RUNTIME_TENSOR_H_
#define SERENITY_RUNTIME_TENSOR_H_

#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <vector>

#include "graph/types.h"
#include "util/logging.h"
#include "util/rng.h"

namespace serenity::runtime {

class Tensor {
 public:
  Tensor() = default;

  // Owning, zero-initialized.
  explicit Tensor(const graph::TensorShape& shape)
      : shape_(shape),
        backing_c_(shape.c),
        owned_(static_cast<std::size_t>(shape.NumElements()), 0.0f) {
    data_ = owned_.data();
    span_elements_ = owned_.size();
  }

  // Uniform values in [-scale, scale], deterministic from `rng`'s state.
  static Tensor Random(const graph::TensorShape& shape, util::Rng& rng,
                       float scale = 1.0f) {
    Tensor t(shape);
    for (float& v : t.owned_) v = rng.NextFloat(scale);
    return t;
  }

  // Non-owning contiguous view over `span_elements` floats at `storage`,
  // interpreted as `shape` (which must fill the span exactly). The caller
  // guarantees the storage outlives the view.
  static Tensor View(float* storage, std::size_t span_elements,
                     const graph::TensorShape& shape) {
    SERENITY_CHECK_EQ(static_cast<std::int64_t>(span_elements),
                      shape.NumElements())
        << "view span does not match its shape";
    Tensor t;
    t.shape_ = shape;
    t.backing_c_ = shape.c;
    t.data_ = storage;
    t.span_elements_ = span_elements;
    return t;
  }

  // Non-owning channel-window view: logical shape `shape`, reading channels
  // [channel_offset, channel_offset + shape.c) of a backing NHWC tensor
  // with `backing_c` channels whose storage starts at `storage` and spans
  // `span_elements` floats (the *backing* tensor's element count).
  static Tensor ChannelView(float* storage, std::size_t span_elements,
                            const graph::TensorShape& shape, int backing_c,
                            int channel_offset) {
    SERENITY_CHECK_GE(channel_offset, 0);
    SERENITY_CHECK_LE(channel_offset + shape.c, backing_c);
    SERENITY_CHECK_EQ(
        static_cast<std::int64_t>(span_elements),
        static_cast<std::int64_t>(shape.n) * shape.h * shape.w * backing_c)
        << "backing span does not match the window's backing shape";
    Tensor t;
    t.shape_ = shape;
    t.backing_c_ = backing_c;
    t.channel_offset_ = channel_offset;
    t.data_ = storage;
    t.span_elements_ = span_elements;
    return t;
  }

  // Copying snapshots into an owning, contiguous tensor (views included).
  Tensor(const Tensor& other) { *this = other; }
  Tensor& operator=(const Tensor& other) {
    if (this == &other) return *this;
    shape_ = other.shape_;
    backing_c_ = shape_.c;
    channel_offset_ = 0;
    owned_.resize(static_cast<std::size_t>(shape_.NumElements()));
    data_ = owned_.data();
    span_elements_ = owned_.size();
    CopyFrom(other);
    return *this;
  }

  // Moving preserves the storage mode; a moved owning tensor keeps its heap
  // buffer (vector moves never reallocate), a moved view keeps aliasing.
  Tensor(Tensor&& other) noexcept { *this = std::move(other); }
  Tensor& operator=(Tensor&& other) noexcept {
    if (this == &other) return *this;
    shape_ = other.shape_;
    backing_c_ = other.backing_c_;
    channel_offset_ = other.channel_offset_;
    const bool was_owning = !other.owned_.empty();
    owned_ = std::move(other.owned_);
    data_ = was_owning ? owned_.data() : other.data_;
    span_elements_ = other.span_elements_;
    other.data_ = nullptr;
    other.span_elements_ = 0;
    other.shape_ = graph::TensorShape{0, 0, 0, 0};
    return *this;
  }

  const graph::TensorShape& shape() const { return shape_; }
  std::size_t size() const {
    return static_cast<std::size_t>(shape_.NumElements());
  }

  // True when logical NHWC order equals storage order (no channel window).
  bool contiguous() const {
    return backing_c_ == shape_.c && channel_offset_ == 0;
  }

  // Raw storage of a *contiguous* tensor; element i is the i-th value in
  // NHWC order. Channel windows have no meaningful linear layout, so this
  // refuses them — use At().
  float* data() {
    SERENITY_CHECK(contiguous()) << "linear access into a channel window";
    return data_;
  }
  const float* data() const {
    SERENITY_CHECK(contiguous()) << "linear access into a channel window";
    return data_;
  }

  float At(int n, int h, int w, int c) const {
    return data_[Index(n, h, w, c)];
  }
  float& At(int n, int h, int w, int c) { return data_[Index(n, h, w, c)]; }

  // Raw pixel-run access for the blocked/SIMD kernel backends
  // (runtime/kernel_backend.h): a pointer to the first channel of pixel
  // (n, h, w), valid for the whole run of `w_count` consecutive pixels in w.
  // Each pixel's shape().c channels are contiguous — channel windows
  // included, because a window's channels are consecutive inside its backing
  // row — and the next pixel in w is pixel_stride() floats away. ONE bounds
  // check covers the entire run, so kernels iterating whole rows keep the
  // no-access-escapes-its-placement guarantee without paying a checked At()
  // per element.
  const float* PixelRun(int n, int h, int w, int w_count) const {
    return data_ + RunIndex(n, h, w, w_count);
  }
  float* PixelRun(int n, int h, int w, int w_count) {
    return data_ + RunIndex(n, h, w, w_count);
  }

  // Floats between pixel (n, h, w) and pixel (n, h, w + 1) in storage:
  // shape().c for contiguous tensors, the backing channel count for channel
  // windows.
  int pixel_stride() const { return backing_c_; }

  // Elementwise copy from `other` (same shape) into this tensor's existing
  // storage — never reallocates, so a bound view stays bound. Two
  // contiguous tensors copy in one memmove, bounds-checked once per side.
  void CopyFrom(const Tensor& other) {
    SERENITY_CHECK(shape_ == other.shape_) << "shape mismatch in CopyFrom";
    if (contiguous() && other.contiguous()) {
      const std::size_t count = size();
      SERENITY_CHECK_LE(count, span_elements_)
          << "tensor access escapes its backing span";
      SERENITY_CHECK_LE(count, other.span_elements_)
          << "tensor access escapes its backing span";
      if (count > 0) std::memmove(data_, other.data_, count * sizeof(float));
      return;
    }
    ForEachIndex([&](int n, int h, int w, int c) {
      At(n, h, w, c) = other.At(n, h, w, c);
    });
  }

  // Re-points a view bound at float k of the storage at `from` to float k
  // of the storage at `to`, keeping its shape, window and span: pointer
  // arithmetic only, which is how an ArenaExecutor moves to another
  // activation block. `from` may already be freed; it is not dereferenced.
  // A default-constructed (unbound) tensor stays unbound.
  void Rebase(const float* from, float* to) {
    SERENITY_CHECK(owned_.empty()) << "rebasing an owning tensor";
    if (data_ == nullptr) return;
    const std::uintptr_t offset = reinterpret_cast<std::uintptr_t>(data_) -
                                  reinterpret_cast<std::uintptr_t>(from);
    data_ = to + offset / sizeof(float);
  }

  // Test conveniences: flatten to / fill from logical NHWC order.
  std::vector<float> ToVector() const;
  void Assign(std::initializer_list<float> values);

  // Largest absolute elementwise difference; shapes must match.
  float MaxAbsDiff(const Tensor& other) const;

 private:
  // Visits every logical index in NHWC order — the single definition of
  // the tensor's iteration contract (CopyFrom, ToVector, Assign,
  // MaxAbsDiff all walk through here).
  template <typename Fn>
  void ForEachIndex(Fn&& fn) const {
    for (int n = 0; n < shape_.n; ++n) {
      for (int h = 0; h < shape_.h; ++h) {
        for (int w = 0; w < shape_.w; ++w) {
          for (int c = 0; c < shape_.c; ++c) {
            fn(n, h, w, c);
          }
        }
      }
    }
  }

  // First flat index of the pixel run [(n, h, w) .. (n, h, w + w_count)),
  // with both endpoints bounds-checked against the logical shape and the
  // backing span.
  std::size_t RunIndex(int n, int h, int w, int w_count) const {
    SERENITY_CHECK_GT(w_count, 0);
    const std::size_t first = Index(n, h, w, 0);
    (void)Index(n, h, w + w_count - 1, shape_.c - 1);  // run stays in bounds
    return first;
  }

  std::size_t Index(int n, int h, int w, int c) const {
    SERENITY_CHECK(n >= 0 && n < shape_.n && h >= 0 && h < shape_.h &&
                   w >= 0 && w < shape_.w && c >= 0 && c < shape_.c)
        << "tensor index out of range";
    const std::size_t flat = static_cast<std::size_t>(
        ((static_cast<std::int64_t>(n) * shape_.h + h) * shape_.w + w) *
            backing_c_ +
        channel_offset_ + c);
    SERENITY_CHECK_LT(flat, span_elements_)
        << "tensor access escapes its backing span";
    return flat;
  }

  graph::TensorShape shape_{0, 0, 0, 0};
  int backing_c_ = 0;       // storage channel stride (== shape_.c unless a
                            // channel window)
  int channel_offset_ = 0;  // first storage channel of this view
  float* data_ = nullptr;
  std::size_t span_elements_ = 0;  // floats addressable from data_
  std::vector<float> owned_;       // empty for views
};

}  // namespace serenity::runtime

#endif  // SERENITY_RUNTIME_TENSOR_H_
