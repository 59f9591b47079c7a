#include "serve/tcp_client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <string_view>
#include <utility>

namespace serenity::serve {

TcpClient::~TcpClient() { Close(); }

TcpClient::TcpClient(TcpClient&& other) noexcept {
  *this = std::move(other);
}

TcpClient& TcpClient::operator=(TcpClient&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    retry_after_millis_ = other.retry_after_millis_;
    max_frame_bytes_ = other.max_frame_bytes_;
    frame_ = std::move(other.frame_);
    infer_fields_ = std::move(other.infer_fields_);
    infer_parts_ = std::move(other.infer_parts_);
    other.fd_ = -1;
  }
  return *this;
}

void TcpClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

util::StatusOr<TcpClient> TcpClient::Connect(int port,
                                             double timeout_seconds) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return util::UnavailableError(std::string("socket: ") +
                                  std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  // Non-blocking connect bounded by the timeout, then back to blocking.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  const int rc =
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc < 0 && errno != EINPROGRESS) {
    const util::Status status = util::UnavailableError(
        "connect to port " + std::to_string(port) + ": " +
        std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (rc < 0) {
    struct pollfd pfd = {fd, POLLOUT, 0};
    const int millis =
        timeout_seconds <= 0
            ? 0
            : static_cast<int>(timeout_seconds * 1e3 < 1 ? 1
                                                         : timeout_seconds *
                                                               1e3);
    const int ready = ::poll(&pfd, 1, millis);
    int soerr = 0;
    socklen_t len = sizeof(soerr);
    if (ready <= 0 ||
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len) < 0 ||
        soerr != 0) {
      ::close(fd);
      return util::UnavailableError(
          "connect to port " + std::to_string(port) + ": " +
          (ready <= 0 ? "timed out" : std::strerror(soerr)));
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  TcpClient client;
  client.fd_ = fd;
  return client;
}

util::StatusOr<std::string_view> TcpClient::Roundtrip(
    std::span<const std::string_view> parts, double timeout_seconds) {
  if (fd_ < 0) {
    return util::FailedPreconditionError("client is not connected");
  }
  retry_after_millis_ = 0;
  SERENITY_RETURN_IF_ERROR(wire::WriteFrameParts(fd_, parts, timeout_seconds,
                                                 max_frame_bytes_));
  SERENITY_RETURN_IF_ERROR(wire::ReadFrame(fd_, &frame_, max_frame_bytes_,
                                           timeout_seconds, timeout_seconds));
  wire::Reply reply;
  const util::StatusOr<std::size_t> body_at =
      wire::DecodeReplyHead(frame_.view(), &reply);
  if (!body_at.ok()) return body_at.status();
  retry_after_millis_ = reply.retry_after_millis;
  if (reply.code != util::StatusCode::kOk) {
    return util::Status(reply.code, "server: " + reply.message);
  }
  return frame_.view().substr(*body_at);
}

util::StatusOr<std::string> TcpClient::Call(const wire::Request& request,
                                            double timeout_seconds) {
  const std::string head = wire::EncodeRequestHead(request);
  const std::string_view parts[] = {head, request.body};
  util::StatusOr<std::string_view> body = Roundtrip(parts, timeout_seconds);
  if (!body.ok()) return body.status();
  return std::string(*body);
}

util::StatusOr<RemotePlan> TcpClient::Plan(const std::string& graph_text,
                                           double deadline_seconds,
                                           bool allow_degraded,
                                           double timeout_seconds) {
  wire::Request request;
  request.verb = wire::Verb::kPlan;
  request.deadline_seconds = deadline_seconds;
  request.allow_degraded = allow_degraded;
  const std::string head = wire::EncodeRequestHead(request);
  const std::string_view parts[] = {head, graph_text};
  util::StatusOr<std::string_view> body = Roundtrip(parts, timeout_seconds);
  if (!body.ok()) return body.status();
  wire::ByteReader reader(*body);
  RemotePlan plan;
  std::uint8_t cache_hit = 0;
  std::uint64_t arena_bytes = 0;
  SERENITY_RETURN_IF_ERROR(reader.ReadU64(&plan.hash.hi));
  SERENITY_RETURN_IF_ERROR(reader.ReadU64(&plan.hash.lo));
  SERENITY_RETURN_IF_ERROR(reader.ReadU8(&plan.quality));
  SERENITY_RETURN_IF_ERROR(reader.ReadU8(&cache_hit));
  SERENITY_RETURN_IF_ERROR(reader.ReadU64(&arena_bytes));
  plan.cache_hit = cache_hit != 0;
  plan.arena_bytes = static_cast<std::int64_t>(arena_bytes);
  return plan;
}

util::StatusOr<std::vector<runtime::Tensor>> TcpClient::Infer(
    const graph::GraphHash& hash,
    const std::vector<runtime::Tensor>& inputs, double deadline_seconds,
    double timeout_seconds) {
  wire::Request request;
  request.verb = wire::Verb::kInfer;
  request.deadline_seconds = deadline_seconds;
  const std::string head = wire::EncodeRequestHead(request);
  // The request goes out as gathered parts, so its tensors are not copied:
  // each input's floats are sent from its own storage when the host's
  // float layout is the wire's (little-endian) and every input is
  // contiguous. infer_fields_ holds the fields around them, complete before
  // any part points into it. Otherwise the whole body is encoded there.
  infer_fields_.clear();
  wire::AppendU64(&infer_fields_, hash.hi);
  wire::AppendU64(&infer_fields_, hash.lo);
  wire::AppendU32(&infer_fields_, static_cast<std::uint32_t>(inputs.size()));
  infer_parts_.assign({head});
  if (std::endian::native == std::endian::little &&
      std::all_of(inputs.begin(), inputs.end(),
                  [](const runtime::Tensor& t) { return t.contiguous(); })) {
    for (const runtime::Tensor& input : inputs) {
      const graph::TensorShape& s = input.shape();
      for (const int dim : {s.n, s.h, s.w, s.c}) {
        wire::AppendU32(&infer_fields_, static_cast<std::uint32_t>(dim));
      }
    }
    const std::string_view fields = infer_fields_;
    infer_parts_.push_back(fields.substr(0, 20));
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      infer_parts_.push_back(fields.substr(20 + 16 * i, 16));
      infer_parts_.emplace_back(
          reinterpret_cast<const char*>(inputs[i].data()),
          inputs[i].size() * sizeof(float));
    }
  } else {
    for (const runtime::Tensor& input : inputs) {
      wire::AppendTensor(&infer_fields_, input);
    }
    infer_parts_.push_back(infer_fields_);
  }
  util::StatusOr<std::string_view> body =
      Roundtrip(infer_parts_, timeout_seconds);
  if (!body.ok()) return body.status();

  wire::ByteReader reader(*body);
  std::uint32_t num_sinks = 0;
  SERENITY_RETURN_IF_ERROR(reader.ReadU32(&num_sinks));
  // Each sink costs at least 16 header bytes; this bound rejects a
  // nonsensical count before any allocation sized from it.
  if (static_cast<std::size_t>(num_sinks) * 16 > reader.remaining()) {
    return util::InvalidArgumentError("reply declares too many sinks");
  }
  std::vector<runtime::Tensor> sinks;
  sinks.reserve(num_sinks);
  for (std::uint32_t i = 0; i < num_sinks; ++i) {
    std::uint32_t dims[4];
    for (std::uint32_t& d : dims) {
      SERENITY_RETURN_IF_ERROR(reader.ReadU32(&d));
    }
    const std::uint64_t elements = static_cast<std::uint64_t>(dims[0]) *
                                   dims[1] * dims[2] * dims[3];
    if (elements * 4 > reader.remaining()) {
      return util::InvalidArgumentError("sink tensor under-run");
    }
    runtime::Tensor tensor(graph::TensorShape{
        static_cast<int>(dims[0]), static_cast<int>(dims[1]),
        static_cast<int>(dims[2]), static_cast<int>(dims[3])});
    SERENITY_RETURN_IF_ERROR(reader.ReadF32Array(
        tensor.data(), static_cast<std::uint32_t>(elements)));
    sinks.push_back(std::move(tensor));
  }
  if (!reader.exhausted()) {
    return util::InvalidArgumentError("trailing bytes after the sinks");
  }
  return sinks;
}

util::StatusOr<std::string> TcpClient::Stats(double timeout_seconds) {
  wire::Request request;
  request.verb = wire::Verb::kStats;
  return Call(request, timeout_seconds);
}

util::StatusOr<std::string> TcpClient::Health(double timeout_seconds) {
  wire::Request request;
  request.verb = wire::Verb::kHealth;
  return Call(request, timeout_seconds);
}

util::Status TcpClient::Drain(double timeout_seconds) {
  wire::Request request;
  request.verb = wire::Verb::kDrain;
  return Call(request, timeout_seconds).status();
}

}  // namespace serenity::serve
