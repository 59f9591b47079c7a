// The serve wire codec and framing (DESIGN.md "Wire protocol"): the bulk
// f32 codec is bit-exact for every float class at any byte offset, an
// under-run is rejected without moving the reader, the bytes of an infer
// request and reply frame match golden bytes built the per-byte way (the
// server's in-place codec included), and ReadFrame buffers what a peer
// sends rather than what it declares.
#include "serve/wire.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "testing/alloc_counter.h"
#include "testing/reference_crc32.h"

namespace serenity::serve::wire {
namespace {

// The pre-memcpy encoders: one byte at a time, little-endian.
void LegacyU32(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void LegacyU64(std::string* out, std::uint64_t v) {
  LegacyU32(out, static_cast<std::uint32_t>(v));
  LegacyU32(out, static_cast<std::uint32_t>(v >> 32));
}

// A tensor as the wire carries it: dims, then logical NHWC values.
void LegacyTensor(std::string* out, const runtime::Tensor& t) {
  const graph::TensorShape& s = t.shape();
  for (const int dim : {s.n, s.h, s.w, s.c}) {
    LegacyU32(out, static_cast<std::uint32_t>(dim));
  }
  for (int n = 0; n < s.n; ++n) {
    for (int h = 0; h < s.h; ++h) {
      for (int w = 0; w < s.w; ++w) {
        for (int c = 0; c < s.c; ++c) {
          LegacyU32(out, std::bit_cast<std::uint32_t>(t.At(n, h, w, c)));
        }
      }
    }
  }
}

std::string LegacyFrame(const std::string& payload) {
  std::string frame;
  LegacyU32(&frame, static_cast<std::uint32_t>(payload.size()));
  LegacyU32(&frame, testing::ReferenceCrc32(payload));
  return frame + payload;
}

// Quiet and signalling NaNs with payload bits, both zeros, both
// infinities, denormals at both ends, and ordinary values.
std::vector<std::uint32_t> SpecialFloatBits() {
  return {0x7FC12345u, 0x7F800001u, 0xFFBADBADu, 0xFFFFFFFFu, 0x00000000u,
          0x80000000u, 0x7F800000u, 0xFF800000u, 0x00000001u, 0x807FFFFFu,
          0x00400000u, 0x3F800000u, 0xC2F6E979u, 0x7F7FFFFFu};
}

std::vector<float> AsFloats(const std::vector<std::uint32_t>& bits) {
  std::vector<float> out;
  for (const std::uint32_t b : bits) out.push_back(std::bit_cast<float>(b));
  return out;
}

struct SocketPair {
  SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0); }
  ~SocketPair() {
    for (const int fd : fds) {
      if (fd >= 0) ::close(fd);
    }
  }
  void CloseWriter() {
    ::close(fds[0]);
    fds[0] = -1;
  }
  int writer() const { return fds[0]; }
  int reader() const { return fds[1]; }
  int fds[2] = {-1, -1};
};

// Every byte `fd` has buffered, read after the writer sent a whole frame.
std::string Drain(int fd, std::size_t bytes) {
  std::string out(bytes, '\0');
  EXPECT_TRUE(RecvAll(fd, out.data(), bytes, 2.0).ok());
  return out;
}

TEST(WireF32Codec, SpecialValuesRoundTripBitExactAtEveryOffset) {
  const std::vector<std::uint32_t> bits = SpecialFloatBits();
  const std::vector<float> values = AsFloats(bits);
  const auto count = static_cast<std::uint32_t>(values.size());
  for (int offset = 0; offset < 8; ++offset) {
    std::string payload(static_cast<std::size_t>(offset), '\x5A');
    AppendF32Array(&payload, values.data(), count);
    std::string golden(static_cast<std::size_t>(offset), '\x5A');
    for (const std::uint32_t b : bits) LegacyU32(&golden, b);
    ASSERT_EQ(payload, golden) << "offset " << offset;

    ByteReader reader(payload);
    for (int i = 0; i < offset; ++i) {
      std::uint8_t skip = 0;
      ASSERT_TRUE(reader.ReadU8(&skip).ok());
    }
    std::vector<float> out(values.size(), 1.0f);
    ASSERT_TRUE(reader.ReadF32Array(out.data(), count).ok());
    EXPECT_TRUE(reader.exhausted());
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(out[i]), bits[i])
          << "offset " << offset << " element " << i;
    }
  }
}

TEST(WireF32Codec, ShortArrayIsRejectedWithoutAdvancing) {
  const std::vector<float> values = {1.5f, -2.0f, 3.25f};
  std::string payload;
  AppendU8(&payload, 7);
  AppendF32Array(&payload, values.data(), 3);
  ByteReader reader(payload);
  std::uint8_t tag = 0;
  ASSERT_TRUE(reader.ReadU8(&tag).ok());
  const std::size_t before = reader.remaining();
  std::vector<float> out(4, 9.0f);
  const util::Status short_read = reader.ReadF32Array(out.data(), 4);
  EXPECT_EQ(short_read.code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(reader.remaining(), before);
  for (const float v : out) EXPECT_EQ(v, 9.0f);  // nothing written
  ASSERT_TRUE(reader.ReadF32Array(out.data(), 3).ok());
  EXPECT_TRUE(reader.exhausted());
  EXPECT_EQ(out[2], 3.25f);
}

// A fixed infer request: two inputs holding every special float class.
struct InferFixture {
  InferFixture() {
    std::vector<float> values = AsFloats(SpecialFloatBits());
    a = runtime::Tensor(graph::TensorShape{1, 3, 5, 2});
    b = runtime::Tensor(graph::TensorShape{1, 2, 2, 3});
    for (std::size_t i = 0; i < a.size(); ++i) {
      a.data()[i] = values[i % values.size()];
    }
    for (std::size_t i = 0; i < b.size(); ++i) {
      b.data()[i] = values[(i * 5 + 3) % values.size()];
    }
    // The sinks include a channel window, as a concat-view sink would be:
    // channels [1, 3) of a 4-channel backing tensor.
    backing = runtime::Tensor(graph::TensorShape{1, 2, 3, 4});
    for (std::size_t i = 0; i < backing.size(); ++i) {
      backing.data()[i] = values[(i * 3 + 1) % values.size()];
    }
    window = runtime::Tensor::ChannelView(
        backing.data(), backing.size(), graph::TensorShape{1, 2, 3, 2},
        /*backing_c=*/4, /*channel_offset=*/1);
  }
  runtime::Tensor a, b, backing, window;
};

constexpr std::uint64_t kHashHi = 0x0123456789ABCDEFull;
constexpr std::uint64_t kHashLo = 0xFEDCBA9876543210ull;

TEST(WireGolden, InferRequestFrameBytesAreUnchanged) {
  InferFixture f;
  Request request;
  request.verb = Verb::kInfer;
  request.deadline_seconds = 0.25;
  request.allow_degraded = true;
  AppendU64(&request.body, kHashHi);
  AppendU64(&request.body, kHashLo);
  AppendU32(&request.body, 2);
  AppendTensor(&request.body, f.a);
  AppendTensor(&request.body, f.b);
  EXPECT_EQ(request.body.size(),
            20 + TensorWireBytes(f.a.shape()) + TensorWireBytes(f.b.shape()));

  std::string golden;
  golden.push_back(static_cast<char>(Verb::kInfer));
  LegacyU32(&golden, 251);  // 250 ms, rounded up so a deadline never shrinks
  golden.push_back(1);      // allow_degraded
  LegacyU64(&golden, kHashHi);
  LegacyU64(&golden, kHashLo);
  LegacyU32(&golden, 2);
  LegacyTensor(&golden, f.a);
  LegacyTensor(&golden, f.b);
  ASSERT_EQ(EncodeRequest(request), golden);
  EXPECT_EQ(EncodeRequestHead(request) + request.body, golden);

  // On the wire: the gathered write and the one-buffer write both send
  // exactly the legacy frame.
  SocketPair pair;
  const std::string head = EncodeRequestHead(request);
  const std::string_view parts[] = {head, request.body};
  ASSERT_TRUE(WriteFrameParts(pair.writer(), parts, 2.0).ok());
  ASSERT_TRUE(WriteFrame(pair.writer(), golden, 2.0).ok());
  const std::string frame = LegacyFrame(golden);
  EXPECT_EQ(Drain(pair.reader(), frame.size()), frame);
  EXPECT_EQ(Drain(pair.reader(), frame.size()), frame);

  util::StatusOr<Request> decoded = DecodeRequest(std::string(golden));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->verb, Verb::kInfer);
  EXPECT_DOUBLE_EQ(decoded->deadline_seconds, 0.251);
  EXPECT_TRUE(decoded->allow_degraded);
  EXPECT_EQ(decoded->body, request.body);
}

TEST(WireGolden, InferReplyFrameBytesAreUnchanged) {
  InferFixture f;
  Reply reply;
  AppendU32(&reply.body, 2);
  AppendTensor(&reply.body, f.a);
  AppendTensor(&reply.body, f.window);

  std::string golden;
  golden.push_back(0);    // kOk
  LegacyU32(&golden, 0);  // retry_after_millis
  LegacyU32(&golden, 0);  // empty message
  LegacyU32(&golden, 2);
  LegacyTensor(&golden, f.a);
  LegacyTensor(&golden, f.window);
  ASSERT_EQ(EncodeReply(reply), golden);

  SocketPair pair;
  const std::string head = EncodeReplyHead(reply);
  const std::string_view parts[] = {head, reply.body};
  ASSERT_TRUE(WriteFrameParts(pair.writer(), parts, 2.0).ok());
  const std::string frame = LegacyFrame(golden);
  EXPECT_EQ(Drain(pair.reader(), frame.size()), frame);

  std::string moved_from = golden;
  util::StatusOr<Reply> moved = DecodeReply(std::move(moved_from));
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved->code, util::StatusCode::kOk);
  EXPECT_EQ(moved->body, reply.body);
}

TEST(WireGolden, InPlaceCodecMatchesTheAppendCodec) {
  // The server writes a reply body with Put* into its frame buffer and
  // reads a request in place: head decoded where it lies, input floats
  // bound where they lie. Both agree with the std::string codec.
  InferFixture f;
  std::string appended;
  AppendU32(&appended, 2);
  AppendTensor(&appended, f.a);
  AppendTensor(&appended, f.window);
  FrameBuffer put;
  put.Resize(4 + TensorWireBytes(f.a.shape()) +
             TensorWireBytes(f.window.shape()));
  const char* end = PutTensor(PutTensor(PutU32(put.data(), 2), f.a), f.window);
  EXPECT_EQ(end, put.data() + put.size());
  EXPECT_EQ(put.view(), appended);

  Reply reply;
  reply.body = appended;
  const std::string reply_payload = EncodeReply(reply);
  Reply reply_head;
  const util::StatusOr<std::size_t> body_at =
      DecodeReplyHead(reply_payload, &reply_head);
  ASSERT_TRUE(body_at.ok());
  EXPECT_EQ(*body_at, 9u);
  EXPECT_EQ(reply_head.code, util::StatusCode::kOk);
  EXPECT_EQ(std::string_view(reply_payload).substr(*body_at), appended);

  Request request;
  request.verb = Verb::kInfer;
  AppendTensor(&request.body, f.a);
  FrameBuffer frame(kRequestHeadBytes);
  frame.Assign(EncodeRequest(request));
  Request request_head;
  ASSERT_TRUE(DecodeRequestHead(frame.view(), &request_head).ok());
  EXPECT_EQ(request_head.verb, Verb::kInfer);
  const float* bound =
      BindF32Array(frame.data() + kRequestHeadBytes + 16, f.a.size());
  for (std::size_t i = 0; i < f.a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(bound[i]),
              std::bit_cast<std::uint32_t>(f.a.data()[i]))
        << "float " << i;
  }
}

TEST(WireGolden, ErrorReplyCarriesMessageAndRetryHint) {
  Reply reply;
  reply.code = util::StatusCode::kResourceExhausted;
  reply.retry_after_millis = 40;
  reply.message = "pool saturated";
  std::string golden;
  golden.push_back(static_cast<char>(util::StatusCode::kResourceExhausted));
  LegacyU32(&golden, 40);
  LegacyU32(&golden, static_cast<std::uint32_t>(reply.message.size()));
  golden += reply.message;
  ASSERT_EQ(EncodeReply(reply), golden);
  EXPECT_EQ(EncodeReplyHead(reply), golden);
  util::StatusOr<Reply> decoded = DecodeReply(std::string(golden));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->message, "pool saturated");
  EXPECT_EQ(decoded->retry_after_millis, 40u);
  EXPECT_TRUE(decoded->body.empty());
}

TEST(WireDecode, RvalueDecodeLeavesPayloadUntouchedOnError) {
  std::string payload = "\x09garbage";  // verb 9 does not exist
  const std::string before = payload;
  EXPECT_EQ(DecodeRequest(std::move(payload)).status().code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(payload, before);
  std::string reply("\x00\x01", 2);  // truncated retry_after
  const std::string reply_before = reply;
  EXPECT_FALSE(DecodeReply(std::move(reply)).ok());
  EXPECT_EQ(reply, reply_before);
}

TEST(WireFrame, GatheredWriteRejectsEmptyAndOversizePayloads) {
  SocketPair pair;
  const std::string_view empty[] = {"", ""};
  EXPECT_EQ(WriteFrameParts(pair.writer(), empty, 1.0).code(),
            util::StatusCode::kInvalidArgument);
  const std::string big(100, 'x');
  const std::string_view parts[] = {big, big};
  EXPECT_EQ(WriteFrameParts(pair.writer(), parts, 1.0, 150).code(),
            util::StatusCode::kInvalidArgument);
  // Nothing reached the socket.
  util::StatusOr<bool> readable = WaitReadable(pair.reader(), 0.01);
  ASSERT_TRUE(readable.ok());
  EXPECT_FALSE(*readable);
}

TEST(WireFrame, ManyPartsGoOutAsOneFrame) {
  // More parts than one sendmsg takes, some empty: the frame on the wire
  // is the legacy frame of their concatenation.
  std::vector<std::string> pieces;
  std::string whole;
  for (int i = 0; i < 40; ++i) {
    pieces.emplace_back(static_cast<std::size_t>(i * 37 % 11),
                        static_cast<char>('a' + i % 26));
    whole += pieces.back();
  }
  const std::vector<std::string_view> parts(pieces.begin(), pieces.end());
  SocketPair pair;
  ASSERT_TRUE(WriteFrameParts(pair.writer(), parts, 2.0).ok());
  const std::string frame = LegacyFrame(whole);
  EXPECT_EQ(Drain(pair.reader(), frame.size()), frame);
}

TEST(WireFrameBuffer, GrowthKeepsThePrefixAndTheAlignment) {
  for (const std::size_t aligned_offset : {0u, 6u, 9u}) {
    FrameBuffer buffer(aligned_offset);
    const std::string prefix = "prefix";
    buffer.Assign(prefix);
    std::size_t kept = prefix.size();
    for (const std::size_t size : {10u, 1000u, 100'000u, 5u, 300'000u}) {
      buffer.Resize(size);
      kept = std::min(kept, size);
      EXPECT_EQ(buffer.size(), size);
      EXPECT_EQ(buffer.view().substr(0, kept), prefix.substr(0, kept));
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buffer.data() +
                                                 aligned_offset) %
                    16,
                0u)
          << "offset " << aligned_offset << " size " << size;
    }
    // Within the capacity, resizing allocates nothing.
    const std::uint64_t before = testing::ThreadAllocationCount();
    buffer.Resize(7);
    buffer.Resize(buffer.capacity());
    EXPECT_EQ(testing::ThreadAllocationCount(), before);
  }
}

TEST(WireFrame, ReusedBufferReadsFramesOfAnySize) {
  SocketPair pair;
  const std::vector<std::string> payloads = {
      std::string(200'000, 'a'), "b", std::string(70'000, 'c'),
      std::string(64u << 10, 'd')};
  FrameBuffer buffer;
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    std::string payload = payloads[i];
    payload[payload.size() / 2] = static_cast<char>('0' + i);
    // The writer runs on its own thread: a 200 KB frame can exceed the
    // socket buffer.
    std::thread writer([&] {
      EXPECT_TRUE(WriteFrame(pair.writer(), payload, 5.0).ok());
    });
    const util::Status read =
        ReadFrame(pair.reader(), &buffer, kMaxFrameBytesDefault, 5.0, 5.0);
    writer.join();
    ASSERT_TRUE(read.ok()) << read.ToString();
    EXPECT_EQ(buffer.view(), payload) << "frame " << i;
  }
}

TEST(WireFrame, StalledGiantFrameOnlyBuffersWhatArrived) {
  // A peer declares 32 MB (under the 64 MB cap), sends 1 KB and hangs up.
  // ReadFrame must fail kUnavailable having grown its buffer by about what
  // arrived, not by the declared size.
  SocketPair pair;
  std::string frame;
  LegacyU32(&frame, 32u << 20);
  LegacyU32(&frame, 0xDEADBEEFu);
  frame.append(1024, 'z');
  ASSERT_TRUE(SendAll(pair.writer(), frame.data(), frame.size(), 1.0).ok());
  pair.CloseWriter();

  FrameBuffer buffer;
  testing::ResetThreadPeakLiveBytes();
  const std::int64_t before = testing::ThreadPeakLiveBytes();
  const util::Status read =
      ReadFrame(pair.reader(), &buffer, kMaxFrameBytesDefault, 2.0, 2.0);
  const std::int64_t grown = testing::ThreadPeakLiveBytes() - before;
  EXPECT_EQ(read.code(), util::StatusCode::kUnavailable) << read.ToString();
  if (testing::ByteTrackingAvailable()) {
    EXPECT_LT(grown, std::int64_t{1} << 20);
  }
}

}  // namespace
}  // namespace serenity::serve::wire
