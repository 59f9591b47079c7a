// TcpClient: a blocking client for the serve wire protocol.
//
// One connection, used serially (run many clients for concurrency — the
// loadgen does exactly that). Every call is deadline-bounded and returns a
// structured Status; a server-side failure arrives as the reply's embedded
// StatusCode, a transport failure (torn frame, dead connection, timeout)
// as the local I/O Status. RetryAfterMillis() surfaces the server's
// back-off hint after a load-shed reply.
#ifndef SERENITY_SERVE_TCP_CLIENT_H_
#define SERENITY_SERVE_TCP_CLIENT_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "graph/canonical_hash.h"
#include "runtime/tensor.h"
#include "serve/wire.h"
#include "util/status.h"

namespace serenity::serve {

// What the plan verb returns: the key for subsequent infer calls plus the
// plan's provenance.
struct RemotePlan {
  graph::GraphHash hash;
  std::uint8_t quality = 0;  // core::PlanQuality on the server
  bool cache_hit = false;
  std::int64_t arena_bytes = 0;
};

class TcpClient {
 public:
  TcpClient() = default;
  ~TcpClient();
  TcpClient(TcpClient&& other) noexcept;
  TcpClient& operator=(TcpClient&& other) noexcept;
  TcpClient(const TcpClient&) = delete;
  TcpClient& operator=(const TcpClient&) = delete;

  // Connects to 127.0.0.1:port. kUnavailable when nobody listens.
  static util::StatusOr<TcpClient> Connect(int port,
                                           double timeout_seconds = 5.0);

  // One request/reply roundtrip. A non-OK *reply* is folded into the
  // returned Status (code + server message); the reply body is returned on
  // success. Transport failures surface as-is.
  util::StatusOr<std::string> Call(const wire::Request& request,
                                   double timeout_seconds);

  // Verb wrappers. deadline_seconds rides the wire and bounds the server's
  // own work; timeout_seconds bounds this client's wait for the reply.
  util::StatusOr<RemotePlan> Plan(const std::string& graph_text,
                                  double deadline_seconds = 0,
                                  bool allow_degraded = true,
                                  double timeout_seconds = 60.0);
  util::StatusOr<std::vector<runtime::Tensor>> Infer(
      const graph::GraphHash& hash,
      const std::vector<runtime::Tensor>& inputs, double deadline_seconds = 0,
      double timeout_seconds = 60.0);
  util::StatusOr<std::string> Stats(double timeout_seconds = 5.0);
  util::StatusOr<std::string> Health(double timeout_seconds = 5.0);
  util::Status Drain(double timeout_seconds = 5.0);

  // The server's back-off hint from the most recent load-shed reply (0 when
  // the last reply was not a shed).
  std::uint32_t retry_after_millis() const { return retry_after_millis_; }

  bool connected() const { return fd_ >= 0; }
  int fd() const { return fd_; }  // exposed for the net chaos suite
  void Close();

 private:
  // Sends one request payload, the concatenation of `parts`, and reads
  // its reply into frame_; returns the OK reply's body, a view into frame_
  // valid until the next call.
  util::StatusOr<std::string_view> Roundtrip(
      std::span<const std::string_view> parts, double timeout_seconds);

  int fd_ = -1;
  std::uint32_t retry_after_millis_ = 0;
  std::uint32_t max_frame_bytes_ = wire::kMaxFrameBytesDefault;
  // Reused across calls: the receive buffer replies land in, and the
  // fields and parts Infer sends a request as.
  wire::FrameBuffer frame_;
  std::string infer_fields_;
  std::vector<std::string_view> infer_parts_;
};

}  // namespace serenity::serve

#endif  // SERENITY_SERVE_TCP_CLIENT_H_
