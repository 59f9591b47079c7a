#include "util/crc32.h"

#include <array>
#include <cstddef>

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#include <immintrin.h>
#define SERENITY_CRC32_FOLD 1
#else
#define SERENITY_CRC32_FOLD 0
#endif

namespace serenity::util {
namespace {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

// tables[0] is the byte-at-a-time table; tables[k][i] is the CRC register
// after byte i is followed by k zero bytes, so one step can fold the byte
// k positions before the end of an 8-byte block.
constexpr Crc32Tables MakeCrc32Tables() {
  Crc32Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
    t[0][i] = crc;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = t[k - 1][i];
      t[k][i] = (prev >> 8) ^ t[0][prev & 0xFFu];
    }
  }
  return t;
}

constexpr Crc32Tables kTables = MakeCrc32Tables();

// Endian-independent little-endian load; compiles to one mov on x86-64.
std::uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

// Slicing-by-8 over `n` bytes, on the CRC register `c` (the complemented
// CRC value).
std::uint32_t SliceBy8(std::uint32_t c, const unsigned char* p,
                       std::size_t n) {
  const Crc32Tables& t = kTables;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = c ^ LoadLe32(p);
    const std::uint32_t hi = LoadLe32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = (c >> 8) ^ t[0][(c ^ *p) & 0xFFu];
  return c;
}

#if SERENITY_CRC32_FOLD

// The folding path takes whole 16-byte blocks, at least four of them.
constexpr std::size_t kFoldMinBytes = 64;

__attribute__((target("pclmul,sse4.1"))) inline __m128i Load16(
    const unsigned char* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

// Folds the 128-bit accumulator `x` forward by 128 bits onto `next`.
__attribute__((target("pclmul,sse4.1"))) inline __m128i Fold16(
    __m128i x, __m128i next, __m128i k3k4) {
  const __m128i lo = _mm_clmulepi64_si128(x, k3k4, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k3k4, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, next), lo);
}

// Folds `n` bytes (a multiple of 16, at least kFoldMinBytes) into the CRC
// register `c` with carry-less multiplies. Four 128-bit accumulators fold
// 64 bytes per step by x^512 and x^576 (k1, k2), then fold into one
// accumulator and 16 bytes at a time by x^128 and x^192 (k3, k4), down to
// 64 bits (k5) and to the 32-bit register by Barrett reduction with the
// polynomial P and mu = floor(x^64 / P). The constants are the Intel
// paper's (cited in crc32.h), bit-reflected for this LSB-first polynomial.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t Fold(
    std::uint32_t c, const unsigned char* p, std::size_t n) {
  // _mm_set_epi64x takes (high, low).
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 =
      _mm_xor_si128(Load16(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = Load16(p + 16);
  __m128i x3 = Load16(p + 32);
  __m128i x4 = Load16(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    const __m128i l1 = _mm_clmulepi64_si128(x1, k1k2, 0x00);
    const __m128i l2 = _mm_clmulepi64_si128(x2, k1k2, 0x00);
    const __m128i l3 = _mm_clmulepi64_si128(x3, k1k2, 0x00);
    const __m128i l4 = _mm_clmulepi64_si128(x4, k1k2, 0x00);
    x1 = _mm_clmulepi64_si128(x1, k1k2, 0x11);
    x2 = _mm_clmulepi64_si128(x2, k1k2, 0x11);
    x3 = _mm_clmulepi64_si128(x3, k1k2, 0x11);
    x4 = _mm_clmulepi64_si128(x4, k1k2, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, l1), Load16(p));
    x2 = _mm_xor_si128(_mm_xor_si128(x2, l2), Load16(p + 16));
    x3 = _mm_xor_si128(_mm_xor_si128(x3, l3), Load16(p + 32));
    x4 = _mm_xor_si128(_mm_xor_si128(x4, l4), Load16(p + 48));
  }

  x1 = Fold16(x1, x2, k3k4);
  x1 = Fold16(x1, x3, k3k4);
  x1 = Fold16(x1, x4, k3k4);
  for (; n >= 16; p += 16, n -= 16) x1 = Fold16(x1, Load16(p), k3k4);

  // 128 -> 64 bits.
  x2 = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2);
  x2 = _mm_srli_si128(x1, 4);
  x1 = _mm_and_si128(x1, low32);
  x1 = _mm_xor_si128(_mm_clmulepi64_si128(x1, k5, 0x00), x2);

  // Barrett reduction to the 32-bit register.
  x2 = _mm_and_si128(x1, low32);
  x2 = _mm_clmulepi64_si128(x2, poly_mu, 0x10);
  x2 = _mm_and_si128(x2, low32);
  x2 = _mm_clmulepi64_si128(x2, poly_mu, 0x00);
  x1 = _mm_xor_si128(x1, x2);
  return static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
}

bool CpuCanFold() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

#endif  // SERENITY_CRC32_FOLD

}  // namespace

std::uint32_t Crc32Extend(std::uint32_t crc, std::string_view data) {
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  std::uint32_t c = ~crc;
#if SERENITY_CRC32_FOLD
  static const bool can_fold = CpuCanFold();
  if (can_fold && n >= kFoldMinBytes) {
    const std::size_t folded = n & ~std::size_t{15};
    c = Fold(c, p, folded);
    p += folded;
    n -= folded;
  }
#endif
  return ~SliceBy8(c, p, n);
}

namespace internal {

std::uint32_t Crc32ExtendPortable(std::uint32_t crc, std::string_view data) {
  return ~SliceBy8(~crc,
                   reinterpret_cast<const unsigned char*>(data.data()),
                   data.size());
}

}  // namespace internal

}  // namespace serenity::util
