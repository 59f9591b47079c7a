// Dynamic fixed-capacity bitset used as the dynamic-programming signature.
//
// The DP scheduler (src/core/dp_scheduler.h) memoizes on the set of already
// scheduled nodes, which is in bijection with the paper's zero-indegree set
// (DESIGN.md §3.2). Sets are dense over node ids, so a word-packed bitset
// with a cheap hash is the natural representation.
#ifndef SERENITY_UTIL_BITSET_H_
#define SERENITY_UTIL_BITSET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/logging.h"

namespace serenity::util {

// ---------------------------------------------------------------------------
// Word-span primitives.
//
// The DP state store (src/core/state_store.h) keeps thousands of signatures
// packed back-to-back in one uint64_t arena; these free functions implement
// the bitset operations directly on such spans so the hot path never
// materialises a Bitset64 (and never heap-allocates). `num_words` is the
// span length; bits past the logical size must be kept zero by the caller,
// exactly as Bitset64 guarantees for its own storage.
// ---------------------------------------------------------------------------

inline void SpanSetBit(std::uint64_t* words, std::size_t pos) {
  words[pos >> 6] |= (std::uint64_t{1} << (pos & 63));
}

// True if every bit set in `sub` is also set in `super`.
inline bool SpanIsSubsetOf(const std::uint64_t* sub,
                           const std::uint64_t* super,
                           std::size_t num_words) {
  for (std::size_t i = 0; i < num_words; ++i) {
    if ((sub[i] & ~super[i]) != 0) return false;
  }
  return true;
}

inline bool SpanIntersects(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t num_words) {
  for (std::size_t i = 0; i < num_words; ++i) {
    if ((a[i] & b[i]) != 0) return true;
  }
  return false;
}

inline bool SpanEqual(const std::uint64_t* a, const std::uint64_t* b,
                      std::size_t num_words) {
  for (std::size_t i = 0; i < num_words; ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

// Appends the positions of the set bits to `out` in ascending order.
inline void SpanAppendSetBits(const std::uint64_t* words,
                              std::size_t num_words,
                              std::vector<std::int32_t>* out) {
  for (std::size_t i = 0; i < num_words; ++i) {
    for (std::uint64_t word = words[i]; word != 0; word &= word - 1) {
      out->push_back(static_cast<std::int32_t>(
          i * 64 + static_cast<std::size_t>(__builtin_ctzll(word))));
    }
  }
}

// FNV-1a over the words — the one-shot hash for spans whose hash is not
// maintained incrementally (the state store instead caches a Zobrist hash
// per state and derives child hashes with a single XOR; see
// core/state_store.h).
inline std::size_t SpanHash(const std::uint64_t* words,
                            std::size_t num_words) {
  std::uint64_t hash = 1469598103934665603ull;  // FNV offset basis
  for (std::size_t i = 0; i < num_words; ++i) {
    hash ^= words[i];
    hash *= 1099511628211ull;  // FNV prime
  }
  return static_cast<std::size_t>(hash);
}

// A bitset whose capacity is fixed at construction. All operands of binary
// operations must have the same capacity.
class Bitset64 {
 public:
  Bitset64() = default;
  explicit Bitset64(std::size_t num_bits)
      : num_bits_(num_bits), words_((num_bits + 63) / 64, 0) {}

  std::size_t size() const { return num_bits_; }

  bool Test(std::size_t pos) const {
    SERENITY_CHECK_LT(pos, num_bits_);
    return (words_[pos >> 6] >> (pos & 63)) & 1u;
  }

  void Set(std::size_t pos) {
    SERENITY_CHECK_LT(pos, num_bits_);
    words_[pos >> 6] |= (std::uint64_t{1} << (pos & 63));
  }

  void Reset(std::size_t pos) {
    SERENITY_CHECK_LT(pos, num_bits_);
    words_[pos >> 6] &= ~(std::uint64_t{1} << (pos & 63));
  }

  void Clear() { std::fill(words_.begin(), words_.end(), 0); }

  // Number of set bits.
  std::size_t Count() const;

  bool None() const;
  bool Any() const { return !None(); }

  // True if every bit set in *this is also set in other.
  bool IsSubsetOf(const Bitset64& other) const;

  // True if (*this & other) has any bit set.
  bool Intersects(const Bitset64& other) const;

  Bitset64& operator|=(const Bitset64& other);
  Bitset64& operator&=(const Bitset64& other);
  Bitset64& operator^=(const Bitset64& other);

  friend Bitset64 operator|(Bitset64 a, const Bitset64& b) { return a |= b; }
  friend Bitset64 operator&(Bitset64 a, const Bitset64& b) { return a &= b; }

  bool operator==(const Bitset64& other) const = default;

  // Calls fn(index) for every set bit, in increasing index order.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t word = words_[w];
      while (word != 0) {
        const int bit = __builtin_ctzll(word);
        fn(w * 64 + static_cast<std::size_t>(bit));
        word &= word - 1;
      }
    }
  }

  // Indices of all set bits, ascending.
  std::vector<std::size_t> ToIndices() const;

  // FNV-1a over the words; adequate for hash-map bucketing of DP states.
  std::size_t Hash() const;

  // Word-span view of the backing storage (bits past size() are zero). The
  // span is invalidated by any mutation through a non-const method.
  const std::uint64_t* words() const { return words_.data(); }
  std::size_t num_words() const { return words_.size(); }

 private:
  std::size_t num_bits_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace serenity::util

#endif  // SERENITY_UTIL_BITSET_H_
