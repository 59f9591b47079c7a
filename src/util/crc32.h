// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over byte strings.
//
// Used by the persistence layer (serialize/plan.cc, serve/plan_cache.cc) to
// detect corruption — bit flips, torn writes, truncation — in stored plan
// artifacts before any parser consumes them, and by the serve wire protocol
// on every frame. Integrity first, parsing second: once a payload's checksum
// verifies, the strict parsers' internal CHECKs are back to guarding
// programming errors only (DESIGN.md "Failure taxonomy").
//
// Two implementations with the same values (crc32.cc):
//   * On x86 CPUs with PCLMULQDQ, blocks of 64 bytes are folded with
//     carry-less multiplies and reduced to 32 bits by Barrett reduction
//     (Gopal et al., "Fast CRC Computation for Generic Polynomials Using
//     PCLMULQDQ Instruction", Intel 2009; the scheme zlib-ng and Chromium
//     use for this polynomial). The CPU is checked once, at the first call;
//     the rest of the binary stays baseline x86-64.
//   * Everywhere else, and for the last bytes the folding leaves, slicing-
//     by-8: eight 256-entry tables fold eight input bytes per step from two
//     32-bit little-endian loads, with the byte-at-a-time loop for the tail.
// tests/status_test.cc pins both against a byte-at-a-time reference and
// the zlib vectors.
#ifndef SERENITY_UTIL_CRC32_H_
#define SERENITY_UTIL_CRC32_H_

#include <cstdint>
#include <string_view>

namespace serenity::util {

// Continues a CRC-32 over `data`: Crc32Extend(Crc32(a), b) == Crc32(a + b),
// like zlib's crc32(crc, buf, len). Lets a frame be checksummed across
// separate buffers without concatenating them.
std::uint32_t Crc32Extend(std::uint32_t crc, std::string_view data);

// One-shot CRC-32 of `data`. Matches zlib's crc32() for the same bytes.
inline std::uint32_t Crc32(std::string_view data) {
  return Crc32Extend(0, data);
}

namespace internal {

// Crc32Extend by slicing-by-8 alone, whatever the CPU: the fallback path,
// exposed so tests cover it on hosts that take the folding path.
std::uint32_t Crc32ExtendPortable(std::uint32_t crc, std::string_view data);

}  // namespace internal

}  // namespace serenity::util

#endif  // SERENITY_UTIL_CRC32_H_
