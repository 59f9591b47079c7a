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

TEST(Crc32, MatchesKnownVectors) {
  // Standard zlib/IEEE CRC-32 check values.
  EXPECT_EQ(Crc32(""), 0x00000000u);
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
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

TEST(Crc32, MatchesByteAtATimeReferenceOnRandomBuffers) {
  // Lengths 0..4099 cover every tail length of the 8-byte blocks; start
  // offsets 0..7 into a larger buffer cover every load alignment.
  Rng rng(0xC3C32u);
  std::string buffer(4099 + 8, '\0');
  for (int i = 0; i < 2000; ++i) {
    const std::size_t offset = rng.NextBounded(8);
    const std::size_t length = rng.NextBounded(4100);
    for (std::size_t k = 0; k < length; ++k) {
      buffer[offset + k] = static_cast<char>(rng.NextBounded(256));
    }
    const std::string_view data(buffer.data() + offset, length);
    ASSERT_EQ(Crc32(data), testing::ReferenceCrc32(data))
        << "length " << length << " offset " << offset;
  }
}

TEST(Crc32, ExtendMatchesOneShotOverAnySplit) {
  const std::string data = "slicing-by-8 over split frame parts, 0123456789";
  for (std::size_t cut = 0; cut <= data.size(); ++cut) {
    const std::string_view whole = data;
    EXPECT_EQ(Crc32Extend(Crc32(whole.substr(0, cut)), whole.substr(cut)),
              Crc32(data))
        << "cut " << cut;
  }
}

}  // namespace
}  // namespace serenity::util
