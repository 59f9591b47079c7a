// Global operator new/delete replacement that counts this thread's heap
// allocations — the measurement behind the ArenaExecutor's
// zero-allocations-per-inference guarantee (arena_executor_test,
// bench_infer_latency).
//
// Replacement allocation functions must be defined at global scope exactly
// once per binary, so unlike the other testing/ helpers this header may be
// included from ONE translation unit of a binary only. All throwing,
// nothrow and sized forms route through malloc/free consistently (mixing
// replaced and default forms trips ASan's alloc-dealloc-mismatch check);
// the count is thread-local so worker threads (e.g. SchedulerService
// planners) cannot pollute a measurement on the driving thread. One
// process-wide count sits next to it, for the opposite measurement: what
// every other thread (a server's connection workers, say) allocated.
#ifndef SERENITY_TESTS_TESTING_ALLOC_COUNTER_H_
#define SERENITY_TESTS_TESTING_ALLOC_COUNTER_H_

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#if defined(__GLIBC__)
#include <malloc.h>  // malloc_usable_size, for live/peak byte tracking
#endif

namespace serenity::testing {

inline thread_local std::uint64_t g_thread_allocations = 0;
// Allocations by all threads: one relaxed increment per allocation.
inline std::atomic<std::uint64_t> g_process_allocations{0};
// Live and peak-live heap bytes as seen by this thread: every replaced
// operator new adds the block's usable size, every delete subtracts it.
// Frees of blocks another thread allocated make `live` a per-thread *flow*
// rather than an exact census, so measurements should run allocation and
// deallocation on the same thread (the resource-chaos budget harness runs
// the DP single-threaded for exactly this reason). Without glibc's
// malloc_usable_size the byte counters stay zero and byte assertions
// should be skipped.
inline thread_local std::int64_t g_thread_live_bytes = 0;
inline thread_local std::int64_t g_thread_peak_live_bytes = 0;
// Bytes this thread has asked operator new for (the size arguments),
// never decreased. Unlike the live counters it does not depend on the
// allocator's chunk rounding or on what other threads freed, so the same
// code path always reads the same delta.
inline thread_local std::int64_t g_thread_requested_bytes = 0;

// Allocations performed by the calling thread since process start.
inline std::uint64_t ThreadAllocationCount() { return g_thread_allocations; }
// Allocations performed by all threads since process start. Read it around
// work on other threads and subtract the calling thread's own delta.
inline std::uint64_t ProcessAllocationCount() {
  return g_process_allocations.load(std::memory_order_relaxed);
}

inline std::int64_t ThreadLiveBytes() { return g_thread_live_bytes; }
inline std::int64_t ThreadRequestedBytes() {
  return g_thread_requested_bytes;
}
inline std::int64_t ThreadPeakLiveBytes() {
  return g_thread_peak_live_bytes;
}
// Restarts the peak watermark from the current live level (scoped
// measurements: reset, run, read the peak delta).
inline void ResetThreadPeakLiveBytes() {
  g_thread_peak_live_bytes = g_thread_live_bytes;
}
inline bool ByteTrackingAvailable() {
#if defined(__GLIBC__)
  return true;
#else
  return false;
#endif
}

inline void NoteAlloc(void* p, std::size_t size) {
  ++g_thread_allocations;
  g_process_allocations.fetch_add(1, std::memory_order_relaxed);
  if (p != nullptr) {
    g_thread_requested_bytes += static_cast<std::int64_t>(size);
  }
#if defined(__GLIBC__)
  if (p != nullptr) {
    g_thread_live_bytes +=
        static_cast<std::int64_t>(::malloc_usable_size(p));
    if (g_thread_live_bytes > g_thread_peak_live_bytes) {
      g_thread_peak_live_bytes = g_thread_live_bytes;
    }
  }
#else
  (void)p;
#endif
}

inline void NoteFree(void* p) {
#if defined(__GLIBC__)
  if (p != nullptr) {
    g_thread_live_bytes -=
        static_cast<std::int64_t>(::malloc_usable_size(p));
  }
#else
  (void)p;
#endif
}

}  // namespace serenity::testing

// The replacements are kept out of line: inlined into a file that includes
// this header, GCC 12 pairs their malloc/free with the other side's
// new/delete expression and warns -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (void* p = std::malloc(size ? size : 1)) {
    serenity::testing::NoteAlloc(p, size);
    return p;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  if (void* p = std::malloc(size ? size : 1)) {
    serenity::testing::NoteAlloc(p, size);
    return p;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  void* p = std::malloc(size ? size : 1);
  serenity::testing::NoteAlloc(p, size);
  return p;
}
[[gnu::noinline]] void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  void* p = std::malloc(size ? size : 1);
  serenity::testing::NoteAlloc(p, size);
  return p;
}
// C++17 over-aligned forms: counted too, so a future alignas-heavy kernel
// buffer cannot slip past the zero-allocation gate unmeasured.
// std::aligned_alloc requires the size to be a multiple of the alignment.
[[gnu::noinline]] void* operator new(std::size_t size, std::align_val_t align) {
  const std::size_t a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) {
    serenity::testing::NoteAlloc(p, size);
    return p;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size, std::align_val_t align) {
  const std::size_t a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) {
    serenity::testing::NoteAlloc(p, size);
    return p;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  const std::size_t a = static_cast<std::size_t>(align);
  void* p = std::aligned_alloc(a, (size + a - 1) / a * a);
  serenity::testing::NoteAlloc(p, size);
  return p;
}
[[gnu::noinline]] void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  const std::size_t a = static_cast<std::size_t>(align);
  void* p = std::aligned_alloc(a, (size + a - 1) / a * a);
  serenity::testing::NoteAlloc(p, size);
  return p;
}
[[gnu::noinline]] void operator delete(void* p) noexcept {
  serenity::testing::NoteFree(p);
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept {
  serenity::testing::NoteFree(p);
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  serenity::testing::NoteFree(p);
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  serenity::testing::NoteFree(p);
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept {
  serenity::testing::NoteFree(p);
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, const std::nothrow_t&) noexcept {
  serenity::testing::NoteFree(p);
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  serenity::testing::NoteFree(p);
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::align_val_t) noexcept {
  serenity::testing::NoteFree(p);
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  serenity::testing::NoteFree(p);
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  serenity::testing::NoteFree(p);
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  serenity::testing::NoteFree(p);
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  serenity::testing::NoteFree(p);
  std::free(p);
}

#endif  // SERENITY_TESTS_TESTING_ALLOC_COUNTER_H_
