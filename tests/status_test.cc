// util::Status / StatusOr: the error-propagation vocabulary of the serving
// core (DESIGN.md "Failure taxonomy"), plus the CRC-32 primitive the
// integrity gates are built on.
#include "util/status.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "testing/reference_crc32.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace serenity::util {
namespace {

TEST(Status, OkIsDefaultAndEmpty) {
  const Status ok;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.code(), StatusCode::kOk);
  EXPECT_EQ(ok, OkStatus());
  EXPECT_EQ(ok.ToString(), "OK");
}

TEST(Status, FactoriesCarryCodeAndMessage) {
  const Status s = DataLossError("bad checksum");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_EQ(s.message(), "bad checksum");
  EXPECT_NE(s.ToString().find("DATA_LOSS"), std::string::npos);
  EXPECT_NE(s.ToString().find("bad checksum"), std::string::npos);
  EXPECT_EQ(NotFoundError("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(DeadlineExceededError("x").code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(ResourceExhaustedError("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(InvalidArgumentError("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(FailedPreconditionError("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
}

TEST(StatusOr, HoldsValueOrStatus) {
  StatusOr<int> value = 42;
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value.value(), 42);
  EXPECT_EQ(*value, 42);

  const StatusOr<int> error = InvalidArgumentError("nope");
  ASSERT_FALSE(error.ok());
  EXPECT_EQ(error.status().code(), StatusCode::kInvalidArgument);
}

TEST(StatusOr, MovesOutValue) {
  StatusOr<std::string> s = std::string("serving");
  ASSERT_TRUE(s.ok());
  const std::string moved = std::move(s).value();
  EXPECT_EQ(moved, "serving");
}

TEST(StatusOrDeath, ValueOnErrorDies) {
  const StatusOr<int> error = InternalError("boom");
  EXPECT_DEATH((void)error.value(), "boom");
}

Status FailsThrough() { return InternalError("inner"); }

Status PropagatesWithMacro() {
  SERENITY_RETURN_IF_ERROR(FailsThrough());
  return OkStatus();
}

StatusOr<int> Doubles(StatusOr<int> in) {
  SERENITY_ASSIGN_OR_RETURN(const int v, std::move(in));
  return v * 2;
}

TEST(StatusMacros, PropagateErrors) {
  EXPECT_EQ(PropagatesWithMacro().message(), "inner");
  const StatusOr<int> doubled = Doubles(21);
  ASSERT_TRUE(doubled.ok());
  EXPECT_EQ(doubled.value(), 42);
  EXPECT_EQ(Doubles(DataLossError("torn")).status().code(),
            StatusCode::kDataLoss);
}

// Random bytes for the CRC oracles below.
std::string RandomBytes(Rng& rng, std::size_t length) {
  std::string bytes(length, '\0');
  for (char& c : bytes) c = static_cast<char>(rng.NextBounded(256));
  return bytes;
}

TEST(Crc32, MatchesKnownVectors) {
  // Standard zlib/IEEE CRC-32 check values, through the dispatching entry
  // point (the folding path on PCLMUL hosts, for inputs of 64+ bytes) and
  // the portable slicing-by-8 path alike.
  const std::string a64(64, 'a');
  const std::pair<std::string_view, std::uint32_t> vectors[] = {
      {"", 0x00000000u},
      {"123456789", 0xCBF43926u},
      {"The quick brown fox jumps over the lazy dog", 0x414FA339u},
      {a64, testing::ReferenceCrc32(a64)},
  };
  for (const auto& [data, crc] : vectors) {
    EXPECT_EQ(Crc32(data), crc) << data;
    EXPECT_EQ(internal::Crc32ExtendPortable(0, data), crc) << data;
  }
}

TEST(Crc32, SingleBitFlipAlwaysChangesTheChecksum) {
  const std::string base = "serenity-plan v3\nplan cell 12 34 56\n";
  const std::uint32_t crc = Crc32(base);
  for (std::size_t bit = 0; bit < base.size() * 8; ++bit) {
    std::string mutated = base;
    mutated[bit / 8] = static_cast<char>(
        static_cast<unsigned char>(mutated[bit / 8]) ^ (1u << (bit % 8)));
    EXPECT_NE(Crc32(mutated), crc) << "bit " << bit;
  }
}

TEST(Crc32, EveryLengthAndAlignmentMatchesTheReference) {
  // Lengths 0..1100 cover every tail of the 16- and 64-byte folding blocks
  // and of the 8-byte slicing steps, on both sides of the folding path's
  // 64-byte minimum; start offsets 0..15 cover every unaligned load.
  Rng rng(0xC3C32u);
  const std::string buffer = RandomBytes(rng, 1100 + 15);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t length = 0; length <= 1100; ++length) {
      const std::string_view data(buffer.data() + offset, length);
      const std::uint32_t want = testing::ReferenceCrc32(data);
      ASSERT_EQ(Crc32(data), want)
          << "length " << length << " offset " << offset;
      ASSERT_EQ(internal::Crc32ExtendPortable(0, data), want)
          << "length " << length << " offset " << offset;
    }
  }
}

TEST(Crc32, LargeRandomBuffersMatchTheReference) {
  Rng rng(0x1A46Eu);
  for (int i = 0; i < 12; ++i) {
    const std::size_t length = rng.NextBounded((1u << 20) + 1);
    const std::string data = RandomBytes(rng, length);
    const std::uint32_t want = testing::ReferenceCrc32(data);
    ASSERT_EQ(Crc32(data), want) << "length " << length;
    ASSERT_EQ(internal::Crc32ExtendPortable(0, data), want)
        << "length " << length;
  }
}

TEST(Crc32, ExtendMatchesOneShotOverAnySplitAndSeed) {
  const std::string text = "slicing-by-8 over split frame parts, 0123456789";
  for (std::size_t cut = 0; cut <= text.size(); ++cut) {
    const std::string_view whole = text;
    EXPECT_EQ(Crc32Extend(Crc32(whole.substr(0, cut)), whole.substr(cut)),
              Crc32(text))
        << "cut " << cut;
  }
  // Random buffers, seeds (an earlier CRC) and split points: both paths
  // continue a CRC exactly as the reference does.
  Rng rng(0x5EEDu);
  for (int i = 0; i < 2000; ++i) {
    const std::size_t length = rng.NextBounded(i % 50 == 0 ? 100'000 : 3000);
    const std::string data = RandomBytes(rng, length);
    const std::uint32_t seed = static_cast<std::uint32_t>(rng.NextU64());
    const std::size_t cut = rng.NextBounded(length + 1);
    const std::string_view whole = data;
    const std::uint32_t want = testing::ReferenceCrc32(data, seed);
    ASSERT_EQ(Crc32Extend(Crc32Extend(seed, whole.substr(0, cut)),
                          whole.substr(cut)),
              want)
        << "length " << length << " cut " << cut;
    ASSERT_EQ(internal::Crc32ExtendPortable(
                  internal::Crc32ExtendPortable(seed, whole.substr(0, cut)),
                  whole.substr(cut)),
              want)
        << "length " << length << " cut " << cut;
  }
}

}  // namespace
}  // namespace serenity::util
