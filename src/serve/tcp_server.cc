#include "serve/tcp_server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <sstream>
#include <string_view>
#include <utility>

#include "serialize/serialize.h"
#include "util/logging.h"

namespace serenity::serve {
namespace {

// Drain responsiveness: the connection loop polls in slices this long, so
// an idle connection notices a drain within one slice.
constexpr double kPollSliceSeconds = 0.25;
// Budget for best-effort shed replies sent outside the worker loop.
constexpr double kShedWriteSeconds = 1.0;
// Budget for writing one reply to a slow reader.
constexpr double kWriteTimeoutSeconds = 5.0;
// Checkout wait for infer requests that carry no deadline of their own.
constexpr double kDefaultCheckoutWaitSeconds = 5.0;
// How often a worker blocked on a planning future re-probes the connection
// for a peer disconnect (and the server for a drain). A dead client's
// planning run is cancelled within about one slice.
constexpr std::chrono::milliseconds kPlanProbeSlice{100};

// True when the peer definitively hung up: a zero-byte MSG_PEEK read is an
// orderly shutdown, a hard error (ECONNRESET & co.) is an abort. Pending
// bytes (a pipelined request) and EAGAIN both mean the peer is alive.
bool PeerClosedNow(int fd) {
  char probe;
  const ssize_t n = ::recv(fd, &probe, 1, MSG_PEEK | MSG_DONTWAIT);
  if (n == 0) return true;
  if (n < 0) {
    return errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR;
  }
  return false;
}

util::StatusCode ClampCode(util::StatusCode code) {
  return code == util::StatusCode::kOk ? util::StatusCode::kInternal : code;
}

}  // namespace

TcpServer::TcpServer(SchedulerService& service, SessionPool& pool,
                     TcpServerOptions options)
    : service_(service), pool_(pool), options_(std::move(options)) {
  SERENITY_CHECK_GT(options_.num_workers, 0);
  SERENITY_CHECK_GE(options_.max_pending, 0);
}

TcpServer::~TcpServer() {
  if (started_ && !joined_) {
    RequestDrain();
    Join();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

util::Status TcpServer::Start() {
  SERENITY_CHECK(!started_) << "Start called twice";
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return util::UnavailableError(std::string("socket: ") +
                                  std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const util::Status status = util::UnavailableError(
        "bind to port " + std::to_string(options_.port) + ": " +
        std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 128) < 0) {
    const util::Status status =
        util::UnavailableError(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  }
  started_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  workers_.reserve(static_cast<std::size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return util::OkStatus();
}

void TcpServer::RequestDrain() {
  if (draining_.exchange(true, std::memory_order_acq_rel)) return;
  // Unblocks the accept loop: on Linux, shutdown on a listening socket
  // makes a blocked accept return with an error.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  // Unblocks workers parked on a saturated session pool; plan-path workers
  // notice via their per-request probe loop instead.
  drain_cancel_.Cancel();
  queue_ready_.notify_all();
}

void TcpServer::Join() {
  if (!started_ || joined_) return;
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    accept_done_ = true;
  }
  queue_ready_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  joined_ = true;
}

void TcpServer::SendShedAndClose(int fd, const char* why,
                                 std::uint64_t TcpServerStats::* counter) {
  wire::Reply reply;
  reply.code = draining_.load(std::memory_order_acquire)
                   ? util::StatusCode::kUnavailable
                   : util::StatusCode::kResourceExhausted;
  reply.retry_after_millis = options_.retry_after_millis;
  reply.message = why;
  {
    // Counted before the reply goes out, so a peer that has read its shed
    // reply already sees it in the stats.
    std::lock_guard<std::mutex> lock(mu_);
    counters_.*counter += 1;
    counters_.replies_error += 1;
  }
  // Best-effort: a shed peer that also stopped reading just loses the hint.
  (void)wire::WriteFrame(fd, wire::EncodeReply(reply), kShedWriteSeconds,
                         options_.max_frame_bytes);
  ::close(fd);
}

void TcpServer::AcceptLoop() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // EINVAL/EBADF: the listen socket was shut down for drain. Anything
      // else on a healthy socket is transient (EMFILE, ECONNABORTED).
      if (draining_.load(std::memory_order_acquire)) break;
      if (errno == EMFILE || errno == ENFILE || errno == ECONNABORTED) {
        continue;
      }
      break;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      counters_.accepted += 1;
    }
    if (draining_.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(mu_);
      counters_.drain_rejects += 1;
      // Close without a reply: drain shutdown already raced this accept.
      ::close(fd);
      continue;
    }
    bool admitted = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (static_cast<int>(pending_.size()) < options_.max_pending) {
        pending_.push_back(fd);
        counters_.admitted += 1;
        admitted = true;
      }
    }
    if (admitted) {
      queue_ready_.notify_one();
    } else {
      SendShedAndClose(fd, "admission queue full",
                       &TcpServerStats::admission_sheds);
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    accept_done_ = true;
  }
  queue_ready_.notify_all();
}

void TcpServer::WorkerLoop() {
  while (true) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_ready_.wait(lock,
                        [this] { return !pending_.empty() || accept_done_; });
      if (!pending_.empty()) {
        fd = pending_.front();
        pending_.pop_front();
      } else {
        return;  // accept loop gone and nothing queued
      }
    }
    if (draining_.load(std::memory_order_acquire)) {
      SendShedAndClose(fd, "server draining", &TcpServerStats::drain_rejects);
      continue;
    }
    ServeConnection(fd);
  }
}

void TcpServer::ServeConnection(int fd) {
  const auto bump = [this](std::uint64_t TcpServerStats::* field) {
    std::lock_guard<std::mutex> lock(mu_);
    counters_.*field += 1;
  };
  double idle_left = options_.idle_timeout_seconds;
  Connection conn;
  while (true) {
    if (draining_.load(std::memory_order_acquire)) break;
    const double slice = std::min(kPollSliceSeconds, idle_left);
    util::StatusOr<bool> readable = wire::WaitReadable(fd, slice);
    if (!readable.ok()) {
      bump(&TcpServerStats::timeout_closes);
      break;
    }
    if (!*readable) {
      idle_left -= slice;
      if (idle_left <= 0) {
        bump(&TcpServerStats::idle_closes);
        break;
      }
      continue;
    }
    // Data is ready: the frame has effectively begun, so both phases of
    // ReadFrame run under the frame budget.
    const util::Status read =
        wire::ReadFrame(fd, &conn.frame, options_.max_frame_bytes,
                        options_.frame_timeout_seconds,
                        options_.frame_timeout_seconds);
    if (!read.ok()) {
      if (read.code() == util::StatusCode::kUnavailable) {
        // Peer closed or reset: the normal end of a persistent connection.
        break;
      }
      if (read.code() == util::StatusCode::kDeadlineExceeded) {
        bump(&TcpServerStats::timeout_closes);
        break;
      }
      // Oversize, empty or corrupt frame: answer with the structured error
      // (best-effort) and cut the connection — the stream cannot be
      // resynchronized after a damaged frame.
      bump(&TcpServerStats::bad_frames);
      wire::Reply reply;
      reply.code = ClampCode(read.code());
      reply.message = read.message();
      (void)wire::WriteFrame(fd, wire::EncodeReply(reply), kShedWriteSeconds,
                             options_.max_frame_bytes);
      bump(&TcpServerStats::replies_error);
      break;
    }
    idle_left = options_.idle_timeout_seconds;
    wire::Request request;
    const util::Status decoded =
        wire::DecodeRequestHead(conn.frame.view(), &request);
    wire::Reply reply;
    if (decoded.ok()) {
      bump(&TcpServerStats::requests);
      reply = Handle(request, conn, fd);
    } else {
      bump(&TcpServerStats::bad_frames);
      reply.code = ClampCode(decoded.code());
      reply.message = decoded.message();
    }
    const bool ok = reply.code == util::StatusCode::kOk;
    const std::string head = wire::EncodeReplyHead(reply);
    const std::string_view parts[] = {
        head, ok ? conn.frame.view() : std::string_view()};
    const util::Status wrote =
        wire::WriteFrameParts(fd, parts, kWriteTimeoutSeconds,
                              options_.max_frame_bytes);
    if (!wrote.ok()) {
      bump(&TcpServerStats::timeout_closes);
      break;
    }
    bump(ok ? &TcpServerStats::replies_ok : &TcpServerStats::replies_error);
    if (!decoded.ok()) break;  // undecodable stream: close after the reply
  }
  ::close(fd);
}

wire::Reply TcpServer::Handle(const wire::Request& request, Connection& conn,
                              int fd) {
  wire::Reply reply;
  switch (request.verb) {
    case wire::Verb::kHealth:
      conn.frame.Assign(draining() ? "draining" : "ok");
      return reply;
    case wire::Verb::kDrain:
      RequestDrain();
      conn.frame.Assign("draining");
      return reply;
    case wire::Verb::kStats:
      return HandleStats(conn);
    case wire::Verb::kPlan:
    case wire::Verb::kInfer:
      if (draining()) {
        reply.code = util::StatusCode::kUnavailable;
        reply.retry_after_millis = options_.retry_after_millis;
        reply.message = "server draining";
        return reply;
      }
      return request.verb == wire::Verb::kPlan
                 ? HandlePlan(request, conn, fd)
                 : HandleInfer(request, conn);
  }
  reply.code = util::StatusCode::kInvalidArgument;
  reply.message = "unknown verb";
  return reply;
}

wire::Reply TcpServer::HandlePlan(const wire::Request& request,
                                  Connection& conn, int fd) {
  wire::Reply reply;
  util::StatusOr<graph::Graph> graph = serialize::GraphFromTextOr(
      std::string(conn.frame.view().substr(wire::kRequestHeadBytes)));
  if (!graph.ok()) {
    reply.code = ClampCode(graph.status().code());
    reply.message = graph.status().message();
    return reply;
  }
  RequestOptions options;
  if (request.deadline_seconds > 0) {
    options.deadline_seconds = request.deadline_seconds;
  }
  options.allow_degraded = request.allow_degraded;
  // The worker owns this request's cancel token and fires it when the peer
  // vanishes or a drain begins; because planning is single-flight, the run
  // itself stops only if no *other* live requester still wants the plan.
  auto token = std::make_shared<util::CancelToken>();
  options.cancel = token;
  const Submission submission = service_.Submit(*graph, options);
  // Async wait: probe the connection between slices instead of blocking
  // blind in Schedule — a disconnected client's search must not burn
  // budgeted memory to completion. After cancelling we keep waiting: the
  // planner unwinds at its next poll (bounded by the check cadence) and
  // the future always completes.
  while (submission.future.wait_for(kPlanProbeSlice) !=
         std::future_status::ready) {
    if (!token->cancelled() &&
        (draining_.load(std::memory_order_acquire) || PeerClosedNow(fd))) {
      token->Cancel();
    }
  }
  ServeResult result = submission.future.get();
  result.cache_hit = submission.cache_hit;
  result.coalesced = submission.coalesced;
  if (result.plan == nullptr) {
    reply.code = ClampCode(result.status.code());
    reply.message = result.status.message();
    if (reply.code == util::StatusCode::kResourceExhausted) {
      reply.retry_after_millis = options_.retry_after_millis;
    }
    if (reply.code == util::StatusCode::kCancelled) {
      std::lock_guard<std::mutex> lock(mu_);
      counters_.plan_cancels += 1;
    }
    return reply;
  }
  std::string body;
  wire::AppendU64(&body, result.hash.hi);
  wire::AppendU64(&body, result.hash.lo);
  wire::AppendU8(&body, static_cast<std::uint8_t>(result.plan->quality));
  wire::AppendU8(&body, result.cache_hit ? 1 : 0);
  wire::AppendU64(&body, static_cast<std::uint64_t>(
                             result.plan->plan.arena.arena_bytes));
  conn.frame.Assign(body);
  return reply;
}

wire::Reply TcpServer::HandleInfer(const wire::Request& request,
                                   Connection& conn) {
  wire::Reply reply;
  const auto fail = [&reply](util::StatusCode code, std::string message) {
    reply.code = code;
    reply.message = std::move(message);
    return reply;
  };

  // The body is read in place: the input views below alias its floats.
  char* const body = conn.frame.data() + wire::kRequestHeadBytes;
  wire::ByteReader reader(
      std::string_view(body, conn.frame.size() - wire::kRequestHeadBytes));
  graph::GraphHash hash;
  std::uint32_t num_inputs = 0;
  util::Status parsed = reader.ReadU64(&hash.hi);
  if (parsed.ok()) parsed = reader.ReadU64(&hash.lo);
  if (parsed.ok()) parsed = reader.ReadU32(&num_inputs);
  if (!parsed.ok()) {
    return fail(util::StatusCode::kInvalidArgument, parsed.message());
  }

  std::shared_ptr<const CachedPlan> plan = service_.cache().Lookup(hash);
  if (plan == nullptr) {
    return fail(util::StatusCode::kNotFound,
                "unknown plan hash " + hash.ToHex() +
                    "; send the graph via the plan verb first");
  }

  // Validate the wire inputs against the scheduled graph's kInput nodes
  // *before* touching the pool: shape mismatches must never reach
  // ArenaExecutor::Run, whose contract is a CHECK.
  const graph::Graph& graph = plan->result.scheduled_graph;
  if (num_inputs != plan->inputs.size()) {
    return fail(util::StatusCode::kInvalidArgument,
                "graph wants " + std::to_string(plan->inputs.size()) +
                    " input tensors, request carries " +
                    std::to_string(num_inputs));
  }
  conn.inputs.clear();
  for (const graph::NodeId id : plan->inputs) {
    const graph::Node& node = graph.node(id);
    std::uint32_t dims[4];
    for (std::uint32_t& d : dims) {
      parsed = reader.ReadU32(&d);
      if (!parsed.ok()) {
        return fail(util::StatusCode::kInvalidArgument, parsed.message());
      }
    }
    const graph::TensorShape& want = node.shape;
    if (dims[0] != static_cast<std::uint32_t>(want.n) ||
        dims[1] != static_cast<std::uint32_t>(want.h) ||
        dims[2] != static_cast<std::uint32_t>(want.w) ||
        dims[3] != static_cast<std::uint32_t>(want.c)) {
      return fail(util::StatusCode::kInvalidArgument,
                  "input tensor shape mismatch for node '" + node.name +
                      "'");
    }
    // Every field before the floats is a multiple of 4 bytes and the body
    // starts 16-byte aligned (Connection::frame), so the floats are
    // aligned where they lie.
    const std::size_t count = static_cast<std::size_t>(want.NumElements());
    std::size_t at = 0;
    parsed = reader.Skip(count * sizeof(float), &at);
    if (!parsed.ok()) {
      return fail(util::StatusCode::kInvalidArgument, parsed.message());
    }
    conn.inputs.push_back(runtime::Tensor::View(
        wire::BindF32Array(body + at, count), count, want));
  }
  if (!reader.exhausted()) {
    return fail(util::StatusCode::kInvalidArgument,
                "trailing bytes after the input tensors");
  }

  // The client's budget bounds the checkout wait — a request that cannot
  // get a session before its deadline is shed now, not served late. The
  // drain token makes the wait abandonable: a drain fails it kCancelled
  // within one poll slice instead of holding the worker to the timeout.
  const double wait = request.deadline_seconds > 0
                          ? request.deadline_seconds
                          : kDefaultCheckoutWaitSeconds;
  util::StatusOr<SessionPool::Lease> lease =
      pool_.Checkout(plan, wait, &drain_cancel_);
  if (!lease.ok()) {
    reply.code = ClampCode(lease.status().code());
    reply.message = lease.status().message();
    if (reply.code == util::StatusCode::kResourceExhausted) {
      reply.retry_after_millis = options_.retry_after_millis;
    }
    return reply;
  }
  (*lease)->Run(conn.inputs);
  // Run has copied the inputs into the arena, so the frame buffer is free:
  // encode the sinks into it straight out of the arena while the lease
  // holds it.
  conn.inputs.clear();
  const std::vector<const runtime::Tensor*>& sinks =
      (*lease)->executor().SinkViews();
  std::size_t body_bytes = 4;
  for (const runtime::Tensor* sink : sinks) {
    body_bytes += wire::TensorWireBytes(sink->shape());
  }
  conn.frame.Resize(body_bytes);
  char* out = wire::PutU32(conn.frame.data(),
                           static_cast<std::uint32_t>(sinks.size()));
  for (const runtime::Tensor* sink : sinks) {
    out = wire::PutTensor(out, *sink);
  }
  return reply;
}

wire::Reply TcpServer::HandleStats(Connection& conn) {
  wire::Reply reply;
  const ServiceStats service = service_.stats();
  const SessionPoolStats pool = pool_.stats();
  TcpServerStats server;
  {
    std::lock_guard<std::mutex> lock(mu_);
    server = counters_;
  }
  server.draining = draining();
  std::ostringstream os;
  os << "server.accepted " << server.accepted << "\n"
     << "server.admitted " << server.admitted << "\n"
     << "server.admission_sheds " << server.admission_sheds << "\n"
     << "server.drain_rejects " << server.drain_rejects << "\n"
     << "server.requests " << server.requests << "\n"
     << "server.replies_ok " << server.replies_ok << "\n"
     << "server.replies_error " << server.replies_error << "\n"
     << "server.bad_frames " << server.bad_frames << "\n"
     << "server.idle_closes " << server.idle_closes << "\n"
     << "server.timeout_closes " << server.timeout_closes << "\n"
     << "server.plan_cancels " << server.plan_cancels << "\n"
     << "server.draining " << (server.draining ? 1 : 0) << "\n"
     << "pool.checkouts " << pool.checkouts << "\n"
     << "pool.reuses " << pool.reuses << "\n"
     << "pool.creations " << pool.creations << "\n"
     << "pool.returns " << pool.returns << "\n"
     << "pool.waits " << pool.waits << "\n"
     << "pool.sheds " << pool.sheds << "\n"
     << "pool.cancelled_waits " << pool.cancelled_waits << "\n"
     << "pool.budget_denials " << pool.budget_denials << "\n"
     << "pool.evictions " << pool.evictions << "\n"
     << "pool.sessions_idle " << pool.sessions_idle << "\n"
     << "pool.sessions_leased " << pool.sessions_leased << "\n"
     << "pool.arena_bytes_pooled " << pool.arena_bytes_pooled << "\n"
     << "pool.blocks " << pool.blocks << "\n"
     << "pool.block_bytes " << pool.block_bytes << "\n"
     << "service.requests " << service.requests << "\n"
     << "service.cache_hits " << service.cache_hits << "\n"
     << "service.coalesced " << service.coalesced << "\n"
     << "service.planned " << service.planned << "\n"
     << "service.failures " << service.failures << "\n"
     << "service.degraded_plans " << service.degraded_plans << "\n"
     << "service.cancelled " << service.cancelled << "\n"
     << "service.admission_sheds " << service.admission_sheds << "\n"
     << "service.degraded_on_memory " << service.degraded_on_memory << "\n"
     << "service.upgrades " << service.upgrades << "\n"
     << "service.upgrade_failures " << service.upgrade_failures << "\n"
     << "cache.entries " << service.cache.entries << "\n"
     << "cache.bytes_in_use " << service.cache.bytes_in_use << "\n"
     << "cache.degraded_entries " << service.cache.degraded_entries << "\n";
  const auto governor_lines = [&os](const char* name,
                                    const util::MemoryBudget* budget) {
    if (budget == nullptr) return;
    os << "governor." << name << ".limit_bytes " << budget->limit_bytes()
       << "\n"
       << "governor." << name << ".used_bytes " << budget->used_bytes()
       << "\n"
       << "governor." << name << ".peak_bytes " << budget->peak_bytes()
       << "\n"
       << "governor." << name << ".denials " << budget->denials() << "\n";
  };
  governor_lines("root", options_.governor);
  governor_lines("planning", service_.options().planning_budget);
  governor_lines("sessions", pool_.options().arena_budget);
  conn.frame.Assign(os.str());
  return reply;
}

TcpServerStats TcpServer::stats() const {
  TcpServerStats out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = counters_;
  }
  out.draining = draining();
  return out;
}

}  // namespace serenity::serve
