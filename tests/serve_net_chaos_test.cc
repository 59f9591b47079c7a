// Network chaos suite for the TCP serving front end: 1000 seeded runs, each
// driving one socket-level fault at a live TcpServer — torn frames,
// truncated headers, mid-stream closes, slow-loris stalls, injected
// checkout exhaustion, oversize declarations, CRC corruption, and
// protocol garbage. The contract (DESIGN.md "Overload policy"): the server
// never aborts, never hangs, answers damage with structured Status replies
// where a reply is still possible, and every *successful* reply stays
// bit-identical to ReferenceExecutor. A persistent well-behaved probe
// connection verifies both liveness and bit-identity after every fault.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graph/canonical_hash.h"
#include "models/swiftnet.h"
#include "runtime/executor.h"
#include "serialize/serialize.h"
#include "serve/tcp_client.h"
#include "serve/tcp_server.h"
#include "testing/fault_injection.h"
#include "testing/random_graphs.h"
#include "testing/runtime_inputs.h"
#include "testing/sink_compare.h"
#include "util/crc32.h"

namespace serenity::serve {
namespace {

namespace ftest = serenity::testing;

constexpr int kSeeds = 1000;

std::string FrameFor(const std::string& payload) {
  std::string frame;
  wire::AppendU32(&frame, static_cast<std::uint32_t>(payload.size()));
  wire::AppendU32(&frame, util::Crc32(payload));
  frame += payload;
  return frame;
}

class NetChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TcpServerOptions options;
    options.num_workers = 2;
    options.max_pending = 8;
    options.idle_timeout_seconds = 20.0;   // probe stays connected
    options.frame_timeout_seconds = 0.04;  // loris seeds resolve fast
    options.max_frame_bytes = 1u << 20;
    server_ = std::make_unique<TcpServer>(service_, pool_, options);
    ASSERT_TRUE(server_->Start().ok());
    ftest::SetSocketDelayMillis(80);  // stall > frame timeout

    // Plan the probe graph once; every probe infer verifies against these
    // precomputed reference sinks, bit for bit.
    util::StatusOr<TcpClient> probe = TcpClient::Connect(server_->port());
    ASSERT_TRUE(probe.ok());
    probe_ = std::make_unique<TcpClient>(std::move(*probe));
    const graph::Graph g = models::MakeSwiftNetCellA();
    util::StatusOr<RemotePlan> plan = probe_->Plan(serialize::ToText(g));
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    hash_ = plan->hash;
    const std::shared_ptr<const CachedPlan> cached =
        service_.cache().Lookup(hash_);
    ASSERT_NE(cached, nullptr);
    probe_inputs_ = ftest::RandomInputsFor(cached->result.scheduled_graph, 1234);
    runtime::ReferenceExecutor reference(cached->result.scheduled_graph);
    reference.Run(probe_inputs_, cached->plan.schedule);
    probe_expect_ = reference.SinkValues();
  }

  void TearDown() override { ftest::SetSocketDelayMillis(100); }

  // Liveness + correctness gate after every fault: the probe connection
  // (reconnecting if a fault's collateral closed it) serves an inference
  // whose sinks are bit-identical to the precomputed reference.
  void ExpectServerHealthy(int seed) {
    util::StatusOr<std::vector<runtime::Tensor>> sinks =
        probe_->Infer(hash_, probe_inputs_, /*deadline_seconds=*/10.0,
                      /*timeout_seconds=*/10.0);
    if (!sinks.ok()) {
      util::StatusOr<TcpClient> fresh = TcpClient::Connect(server_->port());
      ASSERT_TRUE(fresh.ok()) << "seed " << seed << ": reconnect failed: "
                              << fresh.status().ToString();
      probe_ = std::make_unique<TcpClient>(std::move(*fresh));
      sinks = probe_->Infer(hash_, probe_inputs_, 10.0, 10.0);
    }
    ASSERT_TRUE(sinks.ok()) << "seed " << seed << ": "
                            << sinks.status().ToString();
    ASSERT_EQ(ftest::DescribeSinkDivergence(*sinks, probe_expect_), "")
        << "seed " << seed;
  }

  util::StatusOr<TcpClient> ChaosClient() {
    return TcpClient::Connect(server_->port());
  }

  SchedulerService service_;
  SessionPool pool_;
  std::unique_ptr<TcpServer> server_;
  std::unique_ptr<TcpClient> probe_;
  graph::GraphHash hash_;
  std::vector<runtime::Tensor> probe_inputs_;
  std::vector<runtime::Tensor> probe_expect_;
};

TEST_F(NetChaosTest, ThousandSeededSocketFaultsNoAbortsNoHangs) {
  std::uint64_t checkout_sheds = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    switch (seed % 8) {
      case 0: {
        // Torn frame: only the first half of the request reaches the
        // server, reported locally as kDataLoss; the server is left with a
        // half frame and a closing peer.
        util::StatusOr<TcpClient> client = ChaosClient();
        ASSERT_TRUE(client.ok());
        ftest::ScopedFault fault(ftest::FaultPoint::kSocketTornFrame);
        util::StatusOr<std::vector<runtime::Tensor>> result =
            client->Infer(hash_, probe_inputs_, 1.0, 1.0);
        EXPECT_FALSE(result.ok());
        EXPECT_EQ(result.status().code(), util::StatusCode::kDataLoss);
        break;
      }
      case 1: {
        // Truncated header: three bytes of length prefix, then the
        // connection vanishes.
        util::StatusOr<TcpClient> client = ChaosClient();
        ASSERT_TRUE(client.ok());
        const char junk[3] = {0x10, 0x00, 0x00};
        EXPECT_TRUE(wire::SendAll(client->fd(), junk, 3, 1.0).ok());
        client->Close();
        break;
      }
      case 2: {
        // Mid-stream close: the full request lands, then the socket dies.
        // The server's reply hits a dead connection (the EPIPE path, which
        // must be an error code, never SIGPIPE).
        util::StatusOr<TcpClient> client = ChaosClient();
        ASSERT_TRUE(client.ok());
        ftest::ScopedFault fault(ftest::FaultPoint::kSocketMidStreamClose);
        util::StatusOr<std::vector<runtime::Tensor>> result =
            client->Infer(hash_, probe_inputs_, 1.0, 1.0);
        EXPECT_FALSE(result.ok());
        break;
      }
      case 3: {
        // Slow-loris: the request trickles with an 80ms stall against a
        // 40ms frame deadline. The server must cut the connection rather
        // than wedge a worker; the client's call fails cleanly. The frame
        // deadline starts when a worker reads the first byte, so one
        // request completes first: a worker is then already serving this
        // connection when the stalled frame begins, instead of picking it
        // up from the pending queue after the stall has passed.
        util::StatusOr<TcpClient> client = ChaosClient();
        ASSERT_TRUE(client.ok());
        ASSERT_TRUE(client->Health(2.0).ok());
        ftest::ScopedFault fault(ftest::FaultPoint::kSocketDelayedByte);
        util::StatusOr<std::string> result = client->Health(2.0);
        EXPECT_FALSE(result.ok());
        break;
      }
      case 4: {
        // Injected pool exhaustion: the checkout sheds and the shed
        // arrives as a structured retryable reply.
        util::StatusOr<TcpClient> client = ChaosClient();
        ASSERT_TRUE(client.ok());
        ftest::ScopedFault fault(ftest::FaultPoint::kSessionCheckout);
        util::StatusOr<std::vector<runtime::Tensor>> result =
            client->Infer(hash_, probe_inputs_, 1.0, 2.0);
        ASSERT_FALSE(result.ok());
        EXPECT_EQ(result.status().code(),
                  util::StatusCode::kResourceExhausted);
        EXPECT_GT(client->retry_after_millis(), 0u);
        ++checkout_sheds;
        break;
      }
      case 5: {
        // Oversize declaration: a 4-byte header claiming 512 MB. Rejected
        // from the header — the server must answer kInvalidArgument
        // without ever buffering the claimed payload.
        util::StatusOr<TcpClient> client = ChaosClient();
        ASSERT_TRUE(client.ok());
        std::string header;
        wire::AppendU32(&header, 512u << 20);
        wire::AppendU32(&header, 0xabad1dea);
        ASSERT_TRUE(
            wire::SendAll(client->fd(), header.data(), header.size(), 1.0)
                .ok());
        wire::FrameBuffer frame;
        const util::Status read =
            wire::ReadFrame(client->fd(), &frame, 1u << 20, 2.0, 2.0);
        ASSERT_TRUE(read.ok()) << read.ToString();
        util::StatusOr<wire::Reply> reply =
            wire::DecodeReply(std::string(frame.view()));
        ASSERT_TRUE(reply.ok());
        EXPECT_EQ(reply->code, util::StatusCode::kInvalidArgument);
        break;
      }
      case 6: {
        // CRC corruption: a well-formed frame with one payload bit
        // flipped after the checksum was computed. The server must detect
        // kDataLoss before parsing a single field.
        util::StatusOr<TcpClient> client = ChaosClient();
        ASSERT_TRUE(client.ok());
        wire::Request request;
        request.verb = wire::Verb::kStats;
        std::string frame = FrameFor(wire::EncodeRequest(request));
        const std::size_t bit =
            8 * 8 + static_cast<std::size_t>(seed) % ((frame.size() - 8) * 8);
        frame[bit / 8] = static_cast<char>(
            static_cast<unsigned char>(frame[bit / 8]) ^ (1u << (bit % 8)));
        ASSERT_TRUE(
            wire::SendAll(client->fd(), frame.data(), frame.size(), 1.0)
                .ok());
        wire::FrameBuffer raw;
        const util::Status read =
            wire::ReadFrame(client->fd(), &raw, 1u << 20, 2.0, 2.0);
        ASSERT_TRUE(read.ok()) << read.ToString();
        util::StatusOr<wire::Reply> reply =
            wire::DecodeReply(std::string(raw.view()));
        ASSERT_TRUE(reply.ok());
        EXPECT_EQ(reply->code, util::StatusCode::kDataLoss);
        break;
      }
      case 7: {
        if (seed % 16 == 7) {
          // Unknown verb byte with a valid checksum.
          util::StatusOr<TcpClient> client = ChaosClient();
          ASSERT_TRUE(client.ok());
          std::string payload;
          wire::AppendU8(&payload, 99);
          wire::AppendU32(&payload, 0);
          wire::AppendU8(&payload, 1);
          const std::string frame = FrameFor(payload);
          ASSERT_TRUE(
              wire::SendAll(client->fd(), frame.data(), frame.size(), 1.0)
                  .ok());
          wire::FrameBuffer raw;
          const util::Status read =
              wire::ReadFrame(client->fd(), &raw, 1u << 20, 2.0, 2.0);
          ASSERT_TRUE(read.ok()) << read.ToString();
          util::StatusOr<wire::Reply> reply =
              wire::DecodeReply(std::string(raw.view()));
          ASSERT_TRUE(reply.ok());
          EXPECT_EQ(reply->code, util::StatusCode::kInvalidArgument);
        } else {
          // Unknown plan hash: structured kNotFound on a live connection.
          util::StatusOr<TcpClient> client = ChaosClient();
          ASSERT_TRUE(client.ok());
          graph::GraphHash unknown{static_cast<std::uint64_t>(seed) + 1,
                                   0xfeedull};
          util::StatusOr<std::vector<runtime::Tensor>> result =
              client->Infer(unknown, {}, 1.0, 2.0);
          ASSERT_FALSE(result.ok());
          EXPECT_EQ(result.status().code(), util::StatusCode::kNotFound);
          EXPECT_TRUE(client->Health().ok());  // connection survived
        }
        break;
      }
    }
    ExpectServerHealthy(seed);
    if (::testing::Test::HasFatalFailure()) break;
  }

  // The damage was really delivered and really answered.
  const TcpServerStats stats = server_->stats();
  EXPECT_GT(stats.bad_frames, 0u);
  EXPECT_GT(stats.timeout_closes, 0u);  // loris connections were cut
  EXPECT_EQ(pool_.stats().sheds, checkout_sheds);
  EXPECT_FALSE(stats.draining);

  // Orderly shutdown still works after 1000 faults.
  server_->RequestDrain();
  server_->Join();
}

// Mid-planning disconnect: the client sends a Plan request for a graph
// whose exact search takes seconds, then vanishes. The server's plan path
// probes the connection while the planning future is pending, fires the
// request's cancel token on the disconnect, and the single-flight run
// unwinds with kCancelled — freeing the worker and the search memory
// instead of finishing a plan nobody will read. The probe connection
// verifies the server stayed healthy after every disconnect, and the
// plan_cancels / service.cancelled counters prove the cancellations
// really happened (a run that merely finished into a dead socket would
// not advance them).
TEST_F(NetChaosTest, MidPlanningDisconnectCancelsTheSearch) {
  // Its exact search reliably outlives the disconnect below.
  const graph::Graph slow = ftest::SlowToPlanGraph();

  wire::Request request;
  request.verb = wire::Verb::kPlan;
  request.body = serialize::ToText(slow);
  const std::string frame = FrameFor(wire::EncodeRequest(request));

  const ServiceStats before = service_.stats();
  for (int attempt = 0; attempt < 6; ++attempt) {
    SCOPED_TRACE("attempt " + std::to_string(attempt));
    util::StatusOr<TcpClient> client = ChaosClient();
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    ASSERT_TRUE(
        wire::SendAll(client->fd(), frame.data(), frame.size(), 1.0).ok());
    // Give the worker time to decode the frame and enter planning, then
    // disappear without reading the reply.
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    client->Close();
    ExpectServerHealthy(10000 + attempt);
  }

  // The disconnects were noticed mid-flight: planning runs were cancelled,
  // not completed into dead sockets. (Every attempt re-plans — a cancelled
  // flight never reaches the cache.)
  const ServiceStats after = service_.stats();
  EXPECT_GT(after.cancelled, before.cancelled);
  EXPECT_GT(server_->stats().plan_cancels, 0u);
  EXPECT_EQ(service_.cache().Lookup(graph::CanonicalGraphHash(slow)),
            nullptr);

  server_->RequestDrain();
  server_->Join();
}

}  // namespace
}  // namespace serenity::serve
