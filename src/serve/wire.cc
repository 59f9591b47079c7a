#include "serve/wire.h"

#include <errno.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/uio.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstring>
#include <limits>
#include <thread>

#include "testing/fault_injection.h"
#include "util/crc32.h"
#include "util/logging.h"

namespace serenity::serve::wire {

namespace {

using Clock = std::chrono::steady_clock;

// ReadFrame's first payload chunk; later chunks double what has landed.
constexpr std::size_t kFirstReadChunkBytes = 64u << 10;

Clock::time_point DeadlineFrom(double timeout_seconds) {
  if (!(timeout_seconds < std::numeric_limits<double>::infinity())) {
    return Clock::time_point::max();
  }
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(
                                timeout_seconds < 0 ? 0 : timeout_seconds));
}

// Remaining budget in whole milliseconds for poll(); -1 = infinite.
int PollMillis(Clock::time_point deadline) {
  if (deadline == Clock::time_point::max()) return -1;
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  if (left.count() <= 0) return 0;
  if (left.count() > 60'000) return 60'000;  // re-poll; keeps int range sane
  return static_cast<int>(left.count());
}

util::Status ErrnoError(const char* what) {
  return util::UnavailableError(std::string(what) + ": " +
                                std::strerror(errno));
}

// Waits until `fd` is ready for `events` (POLLIN or POLLOUT); an expired
// deadline is kDeadlineExceeded with `timeout_message`.
util::Status PollUntil(int fd, short events, Clock::time_point deadline,
                       const char* timeout_message) {
  while (true) {
    struct pollfd pfd = {fd, events, 0};
    const int ready = ::poll(&pfd, 1, PollMillis(deadline));
    if (ready > 0) return util::OkStatus();
    if (ready < 0 && errno != EINTR) {
      return ErrnoError(events == POLLIN ? "poll(POLLIN)" : "poll(POLLOUT)");
    }
    // A timeout, a signal, or the end of one 60 s slice of a longer wait.
    if (deadline <= Clock::now()) {
      return util::DeadlineExceededError(timeout_message);
    }
  }
}

// Sends bytes [from, to) of the concatenation of `parts` with gathered
// writes (sendmsg), resuming after partial writes. Each write is tried
// first; only a full socket buffer waits, under the deadline.
util::Status SendPartsUntil(int fd, std::string_view head,
                            std::span<const std::string_view> parts,
                            std::size_t from, std::size_t to,
                            Clock::time_point deadline) {
  // One sendmsg takes up to this many pieces; a frame of more parts goes
  // out over several, like any partial write.
  constexpr std::size_t kMaxIov = 16;
  std::array<iovec, kMaxIov> iov;
  while (from < to) {
    std::size_t count = 0;
    std::size_t start = 0;  // offset of the current piece in the frame
    const auto add = [&](std::string_view piece) {
      const std::size_t end = start + piece.size();
      if (end > from && start < to && count < kMaxIov) {
        const std::size_t lo = std::max(from, start) - start;
        const std::size_t hi = std::min(to, end) - start;
        iov[count++] = {const_cast<char*>(piece.data()) + lo, hi - lo};
      }
      start = end;
    };
    add(head);
    for (const std::string_view part : parts) add(part);
    msghdr msg{};
    msg.msg_iov = iov.data();
    msg.msg_iovlen = count;
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n >= 0) {
      from += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EPIPE || errno == ECONNRESET) {
      return util::UnavailableError("connection closed by peer");
    }
    if (errno != EAGAIN && errno != EWOULDBLOCK) return ErrnoError("sendmsg");
    // The socket buffer is full: wait for room under the deadline.
    SERENITY_RETURN_IF_ERROR(
        PollUntil(fd, POLLOUT, deadline, "socket write timed out"));
  }
  return util::OkStatus();
}

// Reads exactly `len` bytes. Bytes already buffered are taken without a
// poll; only an empty socket waits, under the deadline.
util::Status RecvAllUntil(int fd, char* data, std::size_t len,
                          Clock::time_point deadline, bool* got_any) {
  std::size_t received = 0;
  while (received < len) {
    const ssize_t n =
        ::recv(fd, data + received, len - received, MSG_DONTWAIT);
    if (n > 0) {
      received += static_cast<std::size_t>(n);
      if (got_any != nullptr) *got_any = true;
      continue;
    }
    if (n == 0) {
      return util::UnavailableError("connection closed by peer");
    }
    if (errno == EINTR) continue;
    if (errno == ECONNRESET) {
      return util::UnavailableError("connection reset by peer");
    }
    if (errno != EAGAIN && errno != EWOULDBLOCK) return ErrnoError("recv");
    SERENITY_RETURN_IF_ERROR(
        PollUntil(fd, POLLIN, deadline, "socket read timed out"));
  }
  return util::OkStatus();
}

}  // namespace

const char* ToString(Verb verb) {
  switch (verb) {
    case Verb::kPlan: return "plan";
    case Verb::kInfer: return "infer";
    case Verb::kStats: return "stats";
    case Verb::kHealth: return "health";
    case Verb::kDrain: return "drain";
  }
  return "unknown";
}

void AppendU8(std::string* out, std::uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void AppendU32(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void AppendU64(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void AppendBytes(std::string* out, const std::string& bytes) {
  AppendU32(out, static_cast<std::uint32_t>(bytes.size()));
  out->append(bytes);
}

void AppendF32Array(std::string* out, const float* values,
                    std::uint32_t count) {
  if (count == 0) return;
  if constexpr (std::endian::native == std::endian::little) {
    out->append(reinterpret_cast<const char*>(values),
                static_cast<std::size_t>(count) * sizeof(float));
  } else {
    for (std::uint32_t i = 0; i < count; ++i) {
      AppendU32(out, std::bit_cast<std::uint32_t>(values[i]));
    }
  }
}

std::size_t TensorWireBytes(const graph::TensorShape& shape) {
  return 16 + static_cast<std::size_t>(shape.NumElements()) * sizeof(float);
}

void AppendTensor(std::string* out, const runtime::Tensor& tensor) {
  const std::size_t at = out->size();
  out->resize(at + TensorWireBytes(tensor.shape()));
  PutTensor(out->data() + at, tensor);
}

char* PutU32(char* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    *out++ = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
  return out;
}

namespace {

char* PutF32Array(char* out, const float* values, std::size_t count) {
  if constexpr (std::endian::native == std::endian::little) {
    if (count > 0) std::memcpy(out, values, count * sizeof(float));
    return out + count * sizeof(float);
  } else {
    for (std::size_t i = 0; i < count; ++i) {
      out = PutU32(out, std::bit_cast<std::uint32_t>(values[i]));
    }
    return out;
  }
}

}  // namespace

char* PutTensor(char* out, const runtime::Tensor& tensor) {
  const graph::TensorShape& s = tensor.shape();
  for (const int dim : {s.n, s.h, s.w, s.c}) {
    out = PutU32(out, static_cast<std::uint32_t>(dim));
  }
  if (tensor.contiguous()) {
    return PutF32Array(out, tensor.data(), tensor.size());
  }
  // A channel window: each pixel's channels are contiguous in its backing
  // row, pixel_stride() floats apart.
  for (int n = 0; n < s.n; ++n) {
    for (int h = 0; h < s.h; ++h) {
      if (s.w == 0) continue;
      const float* row = tensor.PixelRun(n, h, 0, s.w);
      for (int w = 0; w < s.w; ++w) {
        out = PutF32Array(
            out, row + static_cast<std::size_t>(w) * tensor.pixel_stride(),
            static_cast<std::size_t>(s.c));
      }
    }
  }
  return out;
}

float* BindF32Array(char* bytes, std::size_t count) {
  SERENITY_CHECK_EQ(reinterpret_cast<std::uintptr_t>(bytes) % alignof(float),
                    0u)
      << "wire floats bound in place must be 4-byte aligned";
  if constexpr (std::endian::native != std::endian::little) {
    for (std::size_t i = 0; i < count; ++i) {
      char* at = bytes + i * sizeof(float);
      std::uint32_t bits = 0;
      for (int k = 0; k < 4; ++k) {
        bits |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(at[k]))
                << (8 * k);
      }
      std::memcpy(at, &bits, sizeof(bits));
    }
  }
  return reinterpret_cast<float*>(bytes);
}

util::Status ByteReader::ReadU8(std::uint8_t* v) {
  if (remaining() < 1) {
    return util::InvalidArgumentError("truncated payload: u8 missing");
  }
  *v = static_cast<std::uint8_t>(data_[pos_++]);
  return util::OkStatus();
}

util::Status ByteReader::ReadU32(std::uint32_t* v) {
  if (remaining() < 4) {
    return util::InvalidArgumentError("truncated payload: u32 missing");
  }
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<std::uint32_t>(
                 static_cast<std::uint8_t>(data_[pos_ + i]))
             << (8 * i);
  }
  pos_ += 4;
  *v = value;
  return util::OkStatus();
}

util::Status ByteReader::ReadU64(std::uint64_t* v) {
  if (remaining() < 8) {
    return util::InvalidArgumentError("truncated payload: u64 missing");
  }
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<std::uint64_t>(
                 static_cast<std::uint8_t>(data_[pos_ + i]))
             << (8 * i);
  }
  pos_ += 8;
  *v = value;
  return util::OkStatus();
}

util::Status ByteReader::ReadBytes(std::string* bytes) {
  std::uint32_t len = 0;
  SERENITY_RETURN_IF_ERROR(ReadU32(&len));
  if (remaining() < len) {
    return util::InvalidArgumentError(
        "truncated payload: declared " + std::to_string(len) +
        " bytes, only " + std::to_string(remaining()) + " present");
  }
  bytes->assign(data_.substr(pos_, len));
  pos_ += len;
  return util::OkStatus();
}

util::Status ByteReader::Skip(std::size_t bytes, std::size_t* offset) {
  if (remaining() < bytes) {
    return util::InvalidArgumentError("truncated payload: declared " +
                                      std::to_string(bytes) + " bytes, only " +
                                      std::to_string(remaining()) +
                                      " present");
  }
  *offset = pos_;
  pos_ += bytes;
  return util::OkStatus();
}

util::Status ByteReader::ReadF32Array(float* out, std::uint32_t count) {
  if (remaining() < static_cast<std::size_t>(count) * 4) {
    return util::InvalidArgumentError(
        "truncated payload: float array under-run");
  }
  if constexpr (std::endian::native == std::endian::little) {
    if (count > 0) {
      std::memcpy(out, data_.data() + pos_,
                  static_cast<std::size_t>(count) * sizeof(float));
      pos_ += static_cast<std::size_t>(count) * sizeof(float);
    }
  } else {
    for (std::uint32_t i = 0; i < count; ++i) {
      std::uint32_t bits = 0;
      SERENITY_RETURN_IF_ERROR(ReadU32(&bits));
      out[i] = std::bit_cast<float>(bits);
    }
  }
  return util::OkStatus();
}

std::string EncodeRequestHead(const Request& request) {
  std::string head;
  AppendU8(&head, static_cast<std::uint8_t>(request.verb));
  std::uint32_t deadline_millis = 0;
  if (request.deadline_seconds > 0 &&
      request.deadline_seconds < std::numeric_limits<double>::infinity()) {
    const double millis = request.deadline_seconds * 1e3;
    deadline_millis = millis >= 4e9 ? 0xFFFFFFFFu
                                    : static_cast<std::uint32_t>(millis) + 1;
  }
  AppendU32(&head, deadline_millis);
  AppendU8(&head, request.allow_degraded ? 1 : 0);
  return head;
}

std::string EncodeRequest(const Request& request) {
  std::string payload = EncodeRequestHead(request);
  payload.append(request.body);
  return payload;
}

util::Status DecodeRequestHead(std::string_view payload, Request* out) {
  ByteReader reader(payload);
  std::uint8_t verb = 0;
  std::uint32_t deadline_millis = 0;
  std::uint8_t flags = 0;
  SERENITY_RETURN_IF_ERROR(reader.ReadU8(&verb));
  SERENITY_RETURN_IF_ERROR(reader.ReadU32(&deadline_millis));
  SERENITY_RETURN_IF_ERROR(reader.ReadU8(&flags));
  if (verb < static_cast<std::uint8_t>(Verb::kPlan) ||
      verb > static_cast<std::uint8_t>(Verb::kDrain)) {
    return util::InvalidArgumentError("unknown verb " + std::to_string(verb));
  }
  out->verb = static_cast<Verb>(verb);
  out->deadline_seconds =
      deadline_millis == 0 ? 0 : static_cast<double>(deadline_millis) / 1e3;
  out->allow_degraded = (flags & 1) != 0;
  return util::OkStatus();
}

util::StatusOr<Request> DecodeRequest(std::string&& payload) {
  Request request;
  SERENITY_RETURN_IF_ERROR(DecodeRequestHead(payload, &request));
  payload.erase(0, kRequestHeadBytes);
  request.body = std::move(payload);
  return request;
}

std::string EncodeReplyHead(const Reply& reply) {
  std::string head;
  AppendU8(&head, static_cast<std::uint8_t>(reply.code));
  AppendU32(&head, reply.retry_after_millis);
  AppendBytes(&head, reply.message);
  return head;
}

std::string EncodeReply(const Reply& reply) {
  std::string payload = EncodeReplyHead(reply);
  payload.append(reply.body);
  return payload;
}

util::StatusOr<std::size_t> DecodeReplyHead(std::string_view payload,
                                            Reply* out) {
  ByteReader reader(payload);
  std::uint8_t code = 0;
  SERENITY_RETURN_IF_ERROR(reader.ReadU8(&code));
  if (code > static_cast<std::uint8_t>(util::StatusCode::kCancelled)) {
    return util::InvalidArgumentError("unknown status code " +
                                      std::to_string(code));
  }
  out->code = static_cast<util::StatusCode>(code);
  SERENITY_RETURN_IF_ERROR(reader.ReadU32(&out->retry_after_millis));
  SERENITY_RETURN_IF_ERROR(reader.ReadBytes(&out->message));
  return payload.size() - reader.remaining();
}

util::StatusOr<Reply> DecodeReply(std::string&& payload) {
  Reply reply;
  const util::StatusOr<std::size_t> head = DecodeReplyHead(payload, &reply);
  if (!head.ok()) return head.status();
  payload.erase(0, *head);
  reply.body = std::move(payload);
  return reply;
}

void FrameBuffer::Resize(std::size_t n) {
  if (n > capacity_) {
    // Slack so that data_ + aligned_offset_ can sit on a 16-byte boundary
    // whatever operator new[] returned. new char[] leaves the bytes
    // uninitialized.
    constexpr std::size_t kAlign = 16;
    std::unique_ptr<char[]> storage(new char[n + kAlign - 1]);
    const std::uintptr_t at =
        reinterpret_cast<std::uintptr_t>(storage.get()) + aligned_offset_;
    char* data = storage.get() + ((kAlign - at % kAlign) % kAlign);
    if (size_ > 0) std::memcpy(data, data_, size_);
    storage_ = std::move(storage);
    data_ = data;
    capacity_ = n;
  }
  size_ = n;
}

void FrameBuffer::Assign(std::string_view bytes) {
  Resize(bytes.size());
  if (!bytes.empty()) std::memcpy(data_, bytes.data(), bytes.size());
}

util::Status SendAll(int fd, const void* data, std::size_t len,
                     double timeout_seconds) {
  const std::string_view part(static_cast<const char*>(data), len);
  return SendPartsUntil(fd, part, {}, 0, len, DeadlineFrom(timeout_seconds));
}

util::Status RecvAll(int fd, void* data, std::size_t len,
                     double timeout_seconds) {
  return RecvAllUntil(fd, static_cast<char*>(data), len,
                      DeadlineFrom(timeout_seconds), nullptr);
}

util::StatusOr<bool> WaitReadable(int fd, double timeout_seconds) {
  const Clock::time_point deadline = DeadlineFrom(timeout_seconds);
  while (true) {
    const int wait = PollMillis(deadline);
    struct pollfd pfd = {fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, wait);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("poll(POLLIN)");
    }
    if (ready > 0) return true;
    if (deadline <= Clock::now()) return false;
  }
}

util::Status WriteFrame(int fd, const std::string& payload,
                        double timeout_seconds,
                        std::uint32_t max_frame_bytes) {
  const std::string_view part = payload;
  return WriteFrameParts(fd, {&part, 1}, timeout_seconds, max_frame_bytes);
}

util::Status WriteFrameParts(int fd, std::span<const std::string_view> parts,
                             double timeout_seconds,
                             std::uint32_t max_frame_bytes) {
  std::size_t payload_bytes = 0;
  for (const std::string_view part : parts) payload_bytes += part.size();
  if (payload_bytes == 0) {
    return util::InvalidArgumentError("refusing to write an empty frame");
  }
  if (payload_bytes > max_frame_bytes) {
    return util::InvalidArgumentError(
        "frame of " + std::to_string(payload_bytes) +
        " bytes exceeds the max-frame limit of " +
        std::to_string(max_frame_bytes));
  }
  std::uint32_t crc = 0;
  for (const std::string_view part : parts) crc = util::Crc32Extend(crc, part);
  char header[8];
  PutU32(PutU32(header, static_cast<std::uint32_t>(payload_bytes)), crc);
  const std::string_view frame_head(header, sizeof(header));
  const std::size_t frame_bytes = sizeof(header) + payload_bytes;
  const Clock::time_point deadline = DeadlineFrom(timeout_seconds);
  const auto send = [&](std::size_t from, std::size_t to) {
    return SendPartsUntil(fd, frame_head, parts, from, to, deadline);
  };

  if (testing::FaultTriggered(testing::FaultPoint::kSocketTornFrame)) {
    const std::size_t half = frame_bytes / 2;
    SERENITY_RETURN_IF_ERROR(send(0, half));
    return util::DataLossError("injected torn frame: wrote " +
                               std::to_string(half) + " of " +
                               std::to_string(frame_bytes) + " bytes");
  }
  if (testing::FaultTriggered(testing::FaultPoint::kSocketDelayedByte)) {
    // Slow-loris: start the frame, stall, then finish. A receiver with a
    // frame deadline must cut us off during the stall.
    const std::size_t head = 2;
    SERENITY_RETURN_IF_ERROR(send(0, head));
    std::this_thread::sleep_for(
        std::chrono::milliseconds(testing::SocketDelayMillis()));
    return send(head, frame_bytes);
  }
  if (testing::FaultTriggered(testing::FaultPoint::kSocketMidStreamClose)) {
    SERENITY_RETURN_IF_ERROR(send(0, frame_bytes));
    ::shutdown(fd, SHUT_RDWR);
    return util::DataLossError(
        "injected mid-stream close after a full frame");
  }
  return send(0, frame_bytes);
}

util::Status ReadFrame(int fd, FrameBuffer* payload,
                       std::uint32_t max_frame_bytes,
                       double idle_timeout_seconds,
                       double frame_timeout_seconds) {
  // Phase 1: wait for the frame to begin under the idle budget. Reading the
  // header byte-at-a-time until the first byte lands lets the frame budget
  // start exactly when data first arrives.
  char header[8];
  bool got_any = false;
  {
    const util::Status first =
        RecvAllUntil(fd, header, 1, DeadlineFrom(idle_timeout_seconds),
                     &got_any);
    if (!first.ok()) {
      if (first.code() == util::StatusCode::kDeadlineExceeded) {
        return util::DeadlineExceededError("idle: no frame began within " +
                                           std::to_string(
                                               idle_timeout_seconds) +
                                           "s");
      }
      return first;
    }
  }
  // Phase 2: the rest of the frame under the frame budget (slow-loris
  // guard: a peer trickling bytes cannot hold the worker past this).
  const Clock::time_point deadline = DeadlineFrom(frame_timeout_seconds);
  SERENITY_RETURN_IF_ERROR(RecvAllUntil(fd, header + 1, 7, deadline, nullptr));
  std::uint32_t declared = 0;
  std::uint32_t crc = 0;
  for (int i = 0; i < 4; ++i) {
    declared |= static_cast<std::uint32_t>(
                    static_cast<std::uint8_t>(header[i]))
                << (8 * i);
    crc |= static_cast<std::uint32_t>(
               static_cast<std::uint8_t>(header[4 + i]))
           << (8 * i);
  }
  if (declared == 0) {
    return util::InvalidArgumentError("frame declares an empty payload");
  }
  if (declared > max_frame_bytes) {
    return util::InvalidArgumentError(
        "frame declares " + std::to_string(declared) +
        " bytes, above the max-frame limit of " +
        std::to_string(max_frame_bytes));
  }
  // The declared size is the peer's claim, not its bytes: the buffer grows
  // in doubling chunks as they land, so a stalled giant frame pins little.
  // Within the buffer's capacity nothing is allocated or zero-filled, and
  // a growth copies only the bytes of this frame that have landed.
  payload->Resize(0);
  std::size_t have = 0;
  while (have < declared) {
    const std::size_t want = std::min<std::size_t>(
        declared, std::max({kFirstReadChunkBytes, 2 * have,
                            std::min<std::size_t>(payload->capacity(),
                                                  declared)}));
    payload->Resize(want);
    SERENITY_RETURN_IF_ERROR(RecvAllUntil(fd, payload->data() + have,
                                          want - have, deadline, nullptr));
    have = want;
  }
  if (util::Crc32(payload->view()) != crc) {
    return util::DataLossError("frame checksum mismatch");
  }
  return util::OkStatus();
}

}  // namespace serenity::serve::wire
