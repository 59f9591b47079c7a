// TcpServer: the network front end of the serve path.
//
// Architecture (DESIGN.md "Overload policy"): one accept thread feeds a
// *bounded* admission queue; a fixed pool of connection workers pops
// accepted sockets and owns one connection each for its lifetime
// (thread-per-connection, persistent connections). Every resource a remote
// peer can consume is capped and every cap has a structured answer:
//
//   * Admission queue full  -> the connection is shed at accept time with a
//     kResourceExhausted reply carrying retry_after_millis, then closed.
//     Queues never grow without bound; backpressure is explicit.
//   * Frame too large       -> rejected from its 4-byte header, before the
//     payload is read (a malicious length prefix cannot allocate memory).
//   * Frame trickles        -> the per-frame deadline cuts the connection
//     (slow-loris: a slow writer cannot wedge a worker).
//   * Idle too long         -> the connection is closed (idle peers cannot
//     hold workers hostage).
//   * Pool saturated        -> the infer-path session checkout waits only
//     as long as the request's own deadline allows, then sheds.
//
// Request deadlines travel on the wire (wire::Request::deadline_seconds)
// and bound both planning (serve::RequestOptions) and session checkout, so
// a client's budget is honored end to end — queue wait included.
//
// Graceful drain: RequestDrain() (or the kDrain verb) stops the accept
// loop; connection workers finish the request in flight, close their
// connections, reply kUnavailable("draining") to anything still queued,
// and exit. Join() returns when all of it is done — the binary then
// persists the plan cache and exits 0 (examples/serenity_serve.cpp wires
// this to SIGTERM).
#ifndef SERENITY_SERVE_TCP_SERVER_H_
#define SERENITY_SERVE_TCP_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runtime/tensor.h"
#include "serve/scheduler_service.h"
#include "serve/session_pool.h"
#include "serve/wire.h"
#include "util/cancel_token.h"
#include "util/memory_budget.h"
#include "util/status.h"

namespace serenity::serve {

struct TcpServerOptions {
  // 0 = let the kernel pick an ephemeral port (read it back via port()).
  int port = 0;
  // Connection workers == max concurrent connections being served.
  int num_workers = 4;
  // Accepted connections waiting for a worker beyond this are shed.
  int max_pending = 16;
  // Suggested client back-off, attached to every load-shed reply.
  std::uint32_t retry_after_millis = 50;
  // A connection with no frame *started* for this long is closed.
  double idle_timeout_seconds = 30.0;
  // A frame that started must complete within this (slow-loris guard).
  double frame_timeout_seconds = 5.0;
  std::uint32_t max_frame_bytes = wire::kMaxFrameBytesDefault;
  // Server-wide resource governor (read-only here): surfaced through the
  // stats verb so operators see used/peak/denials next to the serving
  // counters. The planning child is read from the SchedulerService and the
  // session child from the SessionPool; this is the shared root. nullptr =
  // ungoverned, the stats lines are omitted.
  const util::MemoryBudget* governor = nullptr;
};

struct TcpServerStats {
  std::uint64_t accepted = 0;        // connections taken from the kernel
  std::uint64_t admitted = 0;        // ... handed to a worker
  std::uint64_t admission_sheds = 0; // ... shed because the queue was full
  std::uint64_t drain_rejects = 0;   // queued connections rejected at drain
  std::uint64_t requests = 0;        // frames decoded into requests
  std::uint64_t replies_ok = 0;
  std::uint64_t replies_error = 0;   // structured non-OK replies sent
  std::uint64_t bad_frames = 0;      // torn/oversize/corrupt/undecodable
  std::uint64_t idle_closes = 0;     // connections closed for idleness
  std::uint64_t timeout_closes = 0;  // connections cut mid-frame or on a
                                     // failed reply write
  // Plan requests whose cancel token fired (peer disconnect mid-planning,
  // or a drain) and whose planning run ended kCancelled.
  std::uint64_t plan_cancels = 0;
  bool draining = false;
};

class TcpServer {
 public:
  // Serves plans out of `service` and runs inferences through `pool`; both
  // must outlive the server.
  TcpServer(SchedulerService& service, SessionPool& pool,
            TcpServerOptions options = {});
  ~TcpServer();  // RequestDrain + Join if still running

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  // Binds, listens and spawns the accept loop + worker pool. kUnavailable
  // when the port cannot be bound.
  util::Status Start();

  // The bound port (valid after Start; the ephemeral port when options.port
  // was 0).
  int port() const { return port_; }

  // Stops accepting and tells workers to finish their in-flight request and
  // close. Idempotent, callable from any thread (including a connection
  // worker handling the kDrain verb, and a signal-watching main loop).
  void RequestDrain();

  bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }

  // Blocks until the accept loop and every worker have exited (requires a
  // prior RequestDrain, or one racing in). Safe to call once.
  void Join();

  TcpServerStats stats() const;

 private:
  // What a connection reuses across its requests, so that a steady stream
  // of infer requests allocates nothing: the frame buffer, which holds a
  // request's payload and then its OK reply's body, and an infer request's
  // input views into that payload.
  struct Connection {
    wire::FrameBuffer frame{wire::kRequestHeadBytes};
    std::vector<runtime::Tensor> inputs;
  };

  void AcceptLoop();
  void WorkerLoop();
  void ServeConnection(int fd);
  // Executes one request whose head is decoded into `request` and whose
  // body is conn.frame past the head; never throws, never aborts — every
  // failure is a structured Reply. An OK reply's body is left in
  // conn.frame (the Reply's own body stays empty). `fd` lets the plan path
  // probe the connection for a peer disconnect while the planning future
  // is pending.
  wire::Reply Handle(const wire::Request& request, Connection& conn, int fd);
  wire::Reply HandlePlan(const wire::Request& request, Connection& conn,
                         int fd);
  wire::Reply HandleInfer(const wire::Request& request, Connection& conn);
  wire::Reply HandleStats(Connection& conn);
  // Best-effort shed reply (used at admission and drain time, where no
  // worker owns the connection).
  void SendShedAndClose(int fd, const char* why,
                        std::uint64_t TcpServerStats::* counter);

  SchedulerService& service_;
  SessionPool& pool_;
  const TcpServerOptions options_;

  int listen_fd_ = -1;
  int port_ = -1;
  std::atomic<bool> draining_{false};
  // Fired by RequestDrain: unblocks saturated session-checkout waits (the
  // pool polls it in slices) so drain latency is bounded even when every
  // worker is parked on the pool.
  util::CancelToken drain_cancel_;
  bool started_ = false;
  bool joined_ = false;

  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  mutable std::mutex mu_;
  std::condition_variable queue_ready_;
  std::deque<int> pending_;      // accepted fds awaiting a worker
  bool accept_done_ = false;     // accept loop has exited
  TcpServerStats counters_;
};

}  // namespace serenity::serve

#endif  // SERENITY_SERVE_TCP_SERVER_H_
