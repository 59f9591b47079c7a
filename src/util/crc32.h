// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over byte strings.
//
// Used by the persistence layer (serialize/plan.cc, serve/plan_cache.cc) to
// detect corruption — bit flips, torn writes, truncation — in stored plan
// artifacts before any parser consumes them, and by the serve wire protocol
// on every frame. Integrity first, parsing second: once a payload's checksum
// verifies, the strict parsers' internal CHECKs are back to guarding
// programming errors only (DESIGN.md "Failure taxonomy").
//
// Slicing-by-8: eight 256-entry tables fold eight input bytes per step from
// two 32-bit little-endian loads, with the classic byte-at-a-time loop for
// the tail. Same values as the byte loop (tests/status_test.cc pins both
// the zlib vectors and equivalence with a byte-at-a-time reference).
#ifndef SERENITY_UTIL_CRC32_H_
#define SERENITY_UTIL_CRC32_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace serenity::util {

namespace internal {

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

inline constexpr Crc32Tables kCrc32Tables = MakeCrc32Tables();

// Endian-independent little-endian load; compiles to one mov on x86-64.
inline std::uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace internal

// Continues a CRC-32 over `data`: Crc32Extend(Crc32(a), b) == Crc32(a + b),
// like zlib's crc32(crc, buf, len). Lets a frame be checksummed across
// separate buffers without concatenating them.
inline std::uint32_t Crc32Extend(std::uint32_t crc, std::string_view data) {
  const auto& t = internal::kCrc32Tables;
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  std::uint32_t c = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = c ^ internal::LoadLe32(p);
    const std::uint32_t hi = internal::LoadLe32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = (c >> 8) ^ t[0][(c ^ *p) & 0xFFu];
  return ~c;
}

// One-shot CRC-32 of `data`. Matches zlib's crc32() for the same bytes.
inline std::uint32_t Crc32(std::string_view data) {
  return Crc32Extend(0, data);
}

}  // namespace serenity::util

#endif  // SERENITY_UTIL_CRC32_H_
