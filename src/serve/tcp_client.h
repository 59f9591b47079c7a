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
#include <string>
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
  int fd_ = -1;
  std::uint32_t retry_after_millis_ = 0;
  std::uint32_t max_frame_bytes_ = wire::kMaxFrameBytesDefault;
  // Receive buffer reused across replies (Infer hands each body back).
  std::string frame_;
};

}  // namespace serenity::serve

#endif  // SERENITY_SERVE_TCP_CLIENT_H_
