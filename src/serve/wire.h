// The serve wire protocol: length-prefixed, checksummed binary frames over
// a byte stream (TCP), plus deadline-bounded socket I/O.
//
// Framing (DESIGN.md "Wire protocol"):
//
//   frame := u32 payload_bytes (LE) | u32 crc32(payload) (LE) | payload
//
// Integrity first, parsing second — the same stance as the persisted plan
// cache: a frame whose CRC does not verify is rejected as kDataLoss before
// any field of it is decoded, so torn writes and bit rot on the wire cost a
// structured error, never a confused parser. A declared length above the
// receiver's max-frame limit is rejected *before* reading the payload, so
// a malicious 4-byte header cannot make a worker buffer gigabytes.
//
// Request payload:
//
//   u8 verb | u32 deadline_millis (0 = none) | u8 flags | body
//
// verbs: 1 plan, 2 infer, 3 stats, 4 health, 5 drain. flags bit0 =
// allow_degraded. The deadline propagates into serve::RequestOptions (plan)
// and the SessionPool checkout wait (infer), so a client's budget bounds
// queue time on the server.
//
// Reply payload:
//
//   u8 status (util::StatusCode) | u32 retry_after_millis |
//   u32 message_bytes | message | body (present iff status == kOk)
//
// retry_after_millis is nonzero exactly when the failure is load — an
// admission shed, a pool checkout that could not be satisfied, a draining
// server — and tells a well-behaved client when to come back.
//
// All reads and writes run against an absolute deadline: ReadFrame
// distinguishes an *idle* timeout (waiting for a frame to begin — benign on
// a persistent connection) from a *frame* timeout (a frame that started but
// trickles — the slow-loris signature, answered by closing the connection).
// Fault-injection hooks for torn frames, delayed bytes and mid-stream
// closes live in WriteFrame (testing/fault_injection.h), which is how the
// net chaos suite manufactures wire damage deterministically.
//
// The hot path copies no payload it does not have to (DESIGN.md "Wire
// protocol"): WriteFrameParts gathers the frame header and the payload
// pieces into one sendmsg, ReadFrame fills a FrameBuffer that a connection
// reuses without zero-filling it, Decode*Head read the fields before the
// body in place, and the f32 codec is one memcpy on little-endian hosts.
#ifndef SERENITY_SERVE_WIRE_H_
#define SERENITY_SERVE_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "runtime/tensor.h"
#include "util/status.h"

namespace serenity::serve::wire {

inline constexpr std::uint32_t kMaxFrameBytesDefault = 64u << 20;

enum class Verb : std::uint8_t {
  kPlan = 1,
  kInfer = 2,
  kStats = 3,
  kHealth = 4,
  kDrain = 5,
};

const char* ToString(Verb verb);

struct Request {
  Verb verb = Verb::kHealth;
  // Client budget for the whole request (0 on the wire = none/infinity).
  double deadline_seconds = 0;  // 0 means "no deadline"
  bool allow_degraded = true;
  std::string body;
};

struct Reply {
  util::StatusCode code = util::StatusCode::kOk;
  std::uint32_t retry_after_millis = 0;  // nonzero iff retryable load shed
  std::string message;                   // empty on kOk
  std::string body;                      // present iff code == kOk
};

// Encode* build the whole payload; Encode*Head build everything before the
// body, for WriteFrameParts to send next to a body it never copies.
std::string EncodeRequest(const Request& request);
std::string EncodeRequestHead(const Request& request);
// Decode* move the body out of `payload` instead of copying it; on
// failure `payload` is left untouched.
util::StatusOr<Request> DecodeRequest(std::string&& payload);

// Decode*Head read the fields before the body and leave `out->body` alone,
// so a receiver can use the body where it lies in the payload. A request
// head is always kRequestHeadBytes; DecodeReplyHead returns the reply
// head's size, which is where the body starts.
inline constexpr std::size_t kRequestHeadBytes = 6;
util::Status DecodeRequestHead(std::string_view payload, Request* out);
util::StatusOr<std::size_t> DecodeReplyHead(std::string_view payload,
                                            Reply* out);

std::string EncodeReply(const Reply& reply);
std::string EncodeReplyHead(const Reply& reply);
util::StatusOr<Reply> DecodeReply(std::string&& payload);

// ------------------------------------------------------------ body codecs
//
// Little-endian append/extract helpers for the verb bodies. ByteReader is
// Status-returning on under-run so a truncated body is a clean
// kInvalidArgument, never an out-of-range read. The f32 array codec is one
// memcpy on little-endian hosts and a per-element loop elsewhere; both
// produce the same bytes.

void AppendU8(std::string* out, std::uint8_t v);
void AppendU32(std::string* out, std::uint32_t v);
void AppendU64(std::string* out, std::uint64_t v);
void AppendBytes(std::string* out, const std::string& bytes);  // u32 len + bytes
void AppendF32Array(std::string* out, const float* values, std::uint32_t count);

// Tensor codec shared by the infer request (inputs) and reply (sinks):
// u32 n,h,w,c then the tensor's values in NHWC order. A channel-window view
// encodes its logical values, one pixel's channels at a time.
std::size_t TensorWireBytes(const graph::TensorShape& shape);
void AppendTensor(std::string* out, const runtime::Tensor& tensor);

// Put* write the same encodings into memory the caller has sized, and
// return the end of what they wrote.
char* PutU32(char* out, std::uint32_t v);
char* PutTensor(char* out, const runtime::Tensor& tensor);  // TensorWireBytes

// The `count` wire floats at `bytes` (4-byte aligned), as floats, in place:
// a cast on little-endian hosts, a byte swap of each value elsewhere.
float* BindF32Array(char* bytes, std::size_t count);

class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  util::Status ReadU8(std::uint8_t* v);
  util::Status ReadU32(std::uint32_t* v);
  util::Status ReadU64(std::uint64_t* v);
  util::Status ReadBytes(std::string* bytes);  // u32 len + bytes
  // Reads `count` floats (bit-exact: u32 patterns reinterpreted). An
  // under-run reads nothing and leaves the reader where it was.
  util::Status ReadF32Array(float* out, std::uint32_t count);
  // Steps over the next `bytes` bytes, setting *offset to where they start
  // in the data, for a caller that uses them in place. An under-run reads
  // nothing.
  util::Status Skip(std::size_t bytes, std::size_t* offset);

  std::size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
};

// A byte buffer that a connection reuses across frames. Unlike
// std::string, growing it leaves the new bytes uninitialized (ReadFrame is
// about to overwrite them), so a frame larger than the last one costs no
// zero-fill, and a frame within the capacity costs no allocation.
class FrameBuffer {
 public:
  // data() + aligned_offset is 16-byte aligned at every capacity: the
  // server passes kRequestHeadBytes so that infer input floats, at offsets
  // that are multiples of 4 within the request body, can be read in place.
  explicit FrameBuffer(std::size_t aligned_offset = 0)
      : aligned_offset_(aligned_offset) {}
  FrameBuffer(FrameBuffer&& other) noexcept { *this = std::move(other); }
  FrameBuffer& operator=(FrameBuffer&& other) noexcept {
    storage_ = std::move(other.storage_);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    capacity_ = std::exchange(other.capacity_, 0);
    aligned_offset_ = other.aligned_offset_;
    return *this;
  }

  char* data() { return data_; }
  const char* data() const { return data_; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  std::string_view view() const { return {data_, size_}; }

  // Sets the size to `n`. The first min(n, size()) bytes are kept and the
  // rest are unspecified. Allocates only when n exceeds capacity(), and
  // then exactly n bytes (plus alignment slack).
  void Resize(std::size_t n);
  // Makes the buffer a copy of `bytes`.
  void Assign(std::string_view bytes);

 private:
  std::unique_ptr<char[]> storage_;
  char* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
  std::size_t aligned_offset_ = 0;
};

// --------------------------------------------------------------- socket I/O
//
// fd-based so the server, the client and the chaos suite share one
// implementation. Every call takes a wall-clock budget in seconds
// (infinity = block); expiry yields kDeadlineExceeded, a peer close yields
// kUnavailable, and local I/O errors yield kUnavailable with errno text.
// Writes use MSG_NOSIGNAL so a dead peer is an error code, never SIGPIPE.

// Writes the framed payload. Rejects payloads above max_frame_bytes with
// kInvalidArgument (nothing is written). Carries the socket fault hooks.
util::Status WriteFrame(int fd, const std::string& payload,
                        double timeout_seconds,
                        std::uint32_t max_frame_bytes = kMaxFrameBytesDefault);

// WriteFrame for a payload that is the concatenation of `parts`: the
// header and the parts go out in gathered writes, so the payload is never
// assembled in one buffer, and the CRC is carried across the parts. The
// bytes on the wire, the limits and the fault hooks are WriteFrame's.
util::Status WriteFrameParts(
    int fd, std::span<const std::string_view> parts, double timeout_seconds,
    std::uint32_t max_frame_bytes = kMaxFrameBytesDefault);

// Reads one frame into `payload`. idle_timeout_seconds bounds the wait for
// the first header byte (expiry = kDeadlineExceeded with "idle" in the
// message); frame_timeout_seconds bounds the rest of the frame once it has
// begun (expiry = the slow-loris case). A declared length of 0 or above
// max_frame_bytes is kInvalidArgument; a CRC mismatch is kDataLoss; a
// clean close before any header byte is kUnavailable("connection closed").
// A connection reuses `payload` across frames: its capacity is kept, and it
// grows only as payload bytes land (doubling, capped at the declared size),
// so a peer that declares a large frame and stalls pins about what it
// actually sent. On success payload->size() is the declared size; on
// failure its contents are unspecified.
util::Status ReadFrame(int fd, FrameBuffer* payload,
                       std::uint32_t max_frame_bytes,
                       double idle_timeout_seconds,
                       double frame_timeout_seconds);

// Raw deadline-bounded primitives (exposed for the chaos suite's
// hand-built damaged frames).
util::Status SendAll(int fd, const void* data, std::size_t len,
                     double timeout_seconds);
util::Status RecvAll(int fd, void* data, std::size_t len,
                     double timeout_seconds);

// Waits up to timeout_seconds for fd to become readable. Returns true when
// data (or EOF) is ready, false on timeout; kUnavailable on poll failure.
// The server's connection loop polls in short slices through this so a
// drain request interrupts an idle connection promptly.
util::StatusOr<bool> WaitReadable(int fd, double timeout_seconds);

}  // namespace serenity::serve::wire

#endif  // SERENITY_SERVE_WIRE_H_
