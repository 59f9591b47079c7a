// The byte-at-a-time CRC-32 (IEEE, zlib-compatible), kept as an
// independent oracle: status_test checks util::Crc32's folding and
// slicing-by-8 paths against it, and wire_test builds its golden frames
// with it.
#ifndef SERENITY_TESTS_TESTING_REFERENCE_CRC32_H_
#define SERENITY_TESTS_TESTING_REFERENCE_CRC32_H_

#include <array>
#include <cstdint>
#include <string_view>

namespace serenity::testing {

// `seed` continues an earlier CRC, as util::Crc32Extend does.
inline std::uint32_t ReferenceCrc32(std::string_view data,
                                    std::uint32_t seed = 0) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
      }
      t[i] = crc;
    }
    return t;
  }();
  std::uint32_t crc = ~seed;
  for (const char c : data) {
    crc = (crc >> 8) ^ table[(crc ^ static_cast<unsigned char>(c)) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace serenity::testing

#endif  // SERENITY_TESTS_TESTING_REFERENCE_CRC32_H_
