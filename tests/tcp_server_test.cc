// TcpServer + TcpClient: the serve wire protocol end to end over real
// loopback sockets — roundtrips, structured errors, overload shedding,
// deadline propagation, graceful drain, and a steady infer request that
// allocates nothing on the server.
#include "serve/tcp_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "models/swiftnet.h"
#include "models/zoo.h"
#include "runtime/executor.h"
#include "serialize/serialize.h"
#include "serve/tcp_client.h"
#include "testing/alloc_counter.h"
#include "testing/runtime_inputs.h"
#include "testing/sink_compare.h"

namespace serenity::serve {
namespace {

struct Harness {
  SchedulerService service;
  SessionPool pool;
  TcpServer server;

  explicit Harness(TcpServerOptions options = {})
      : server(service, pool, options) {
    const util::Status started = server.Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }
};

// Heap allocations made by every thread except the calling one since
// construction: with the client on the calling thread, what the server
// allocated.
class OtherThreadAllocations {
 public:
  std::uint64_t count() const {
    return (serenity::testing::ProcessAllocationCount() - process_) -
           (serenity::testing::ThreadAllocationCount() - thread_);
  }

 private:
  std::uint64_t process_ = serenity::testing::ProcessAllocationCount();
  std::uint64_t thread_ = serenity::testing::ThreadAllocationCount();
};

TEST(TcpServer, HealthAndStatsRoundtrip) {
  Harness h;
  util::StatusOr<TcpClient> client = TcpClient::Connect(h.server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  util::StatusOr<std::string> health = client->Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(*health, "ok");
  util::StatusOr<std::string> stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("pool.checkouts 0"), std::string::npos);
  EXPECT_NE(stats->find("server.requests"), std::string::npos);
  // The pool's activation blocks: none before the first lease.
  EXPECT_NE(stats->find("\npool.blocks 0\n"), std::string::npos);
  EXPECT_NE(stats->find("\npool.block_bytes 0\n"), std::string::npos);
  EXPECT_NE(stats->find("\npool.arena_bytes_pooled 0\n"), std::string::npos);
  // How the single background upgrade of a degraded plan ended.
  EXPECT_NE(stats->find("\nservice.upgrades 0\n"), std::string::npos);
  EXPECT_NE(stats->find("\nservice.upgrade_failures 0\n"),
            std::string::npos);
  EXPECT_NE(stats->find("\ncache.degraded_entries 0\n"), std::string::npos);
}

TEST(TcpServer, PlanThenInferMatchesReferenceBitForBit) {
  Harness h;
  const graph::Graph g = models::MakeSwiftNetCellA();
  util::StatusOr<TcpClient> client = TcpClient::Connect(h.server.port());
  ASSERT_TRUE(client.ok());

  util::StatusOr<RemotePlan> plan = client->Plan(serialize::ToText(g));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_FALSE(plan->cache_hit);
  EXPECT_GT(plan->arena_bytes, 0);

  // The served sinks must be the reference executor's, bit for bit, on the
  // scheduled graph the server planned.
  const std::shared_ptr<const CachedPlan> cached =
      h.service.cache().Lookup(plan->hash);
  ASSERT_NE(cached, nullptr);
  const std::vector<runtime::Tensor> inputs =
      serenity::testing::RandomInputsFor(cached->result.scheduled_graph, 7);
  util::StatusOr<std::vector<runtime::Tensor>> sinks =
      client->Infer(plan->hash, inputs);
  ASSERT_TRUE(sinks.ok()) << sinks.status().ToString();

  runtime::ReferenceExecutor reference(cached->result.scheduled_graph);
  reference.Run(inputs, cached->plan.schedule);
  EXPECT_EQ(serenity::testing::DescribeSinkDivergence(*sinks,
                                                      reference.SinkValues()),
            "");

  // The same values held in channel windows, which the client cannot send
  // from their storage as they lie, give the same reply.
  std::vector<runtime::Tensor> backings;
  std::vector<runtime::Tensor> windows;
  backings.reserve(inputs.size());
  for (const runtime::Tensor& input : inputs) {
    graph::TensorShape wide = input.shape();
    wide.c += 3;
    runtime::Tensor& backing = backings.emplace_back(wide);
    runtime::Tensor window = runtime::Tensor::ChannelView(
        backing.data(), backing.size(), input.shape(), wide.c,
        /*channel_offset=*/2);
    window.CopyFrom(input);
    windows.push_back(std::move(window));
  }
  util::StatusOr<std::vector<runtime::Tensor>> from_windows =
      client->Infer(plan->hash, windows);
  ASSERT_TRUE(from_windows.ok()) << from_windows.status().ToString();
  EXPECT_EQ(serenity::testing::DescribeSinkDivergence(*from_windows, *sinks),
            "");

  // Re-planning the same structural graph is a cache hit.
  util::StatusOr<RemotePlan> again = client->Plan(serialize::ToText(g));
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->cache_hit);
  EXPECT_EQ(again->hash, plan->hash);
}

TEST(TcpServer, MalformedGraphAndUnknownHashAreStructuredErrors) {
  Harness h;
  util::StatusOr<TcpClient> client = TcpClient::Connect(h.server.port());
  ASSERT_TRUE(client.ok());

  util::StatusOr<RemotePlan> bad =
      client->Plan("node 0 conv2d float32 x shape=banana buffer=0 inputs=");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), util::StatusCode::kInvalidArgument);

  graph::GraphHash unknown{0xdead, 0xbeef};
  util::StatusOr<std::vector<runtime::Tensor>> sinks =
      client->Infer(unknown, {});
  ASSERT_FALSE(sinks.ok());
  EXPECT_EQ(sinks.status().code(), util::StatusCode::kNotFound);

  // The connection survived both errors: a good request still works.
  EXPECT_TRUE(client->Health().ok());
}

TEST(TcpServer, InferShapeMismatchRejectedBeforeExecution) {
  Harness h;
  const graph::Graph g = models::MakeSwiftNetCellB();
  util::StatusOr<TcpClient> client = TcpClient::Connect(h.server.port());
  ASSERT_TRUE(client.ok());
  util::StatusOr<RemotePlan> plan = client->Plan(serialize::ToText(g));
  ASSERT_TRUE(plan.ok());

  // Wrong-shaped input: structured kInvalidArgument, no abort, no crash.
  std::vector<runtime::Tensor> wrong;
  wrong.push_back(runtime::Tensor(graph::TensorShape{1, 1, 1, 1}));
  util::StatusOr<std::vector<runtime::Tensor>> sinks =
      client->Infer(plan->hash, wrong);
  ASSERT_FALSE(sinks.ok());
  EXPECT_EQ(sinks.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_TRUE(client->Health().ok());
}

TEST(TcpServer, PoolSaturationShedsWithRetryAfter) {
  Harness h;
  const graph::Graph g = models::MakeSwiftNetCellA();
  util::StatusOr<TcpClient> client = TcpClient::Connect(h.server.port());
  ASSERT_TRUE(client.ok());
  util::StatusOr<RemotePlan> plan = client->Plan(serialize::ToText(g));
  ASSERT_TRUE(plan.ok());

  // Hold every session the pool may build for this plan, then send an
  // infer with a tiny deadline: it must shed with retry-after, fast.
  std::vector<SessionPool::Lease> held;
  const std::shared_ptr<const CachedPlan> cached =
      h.service.cache().Lookup(plan->hash);
  for (int i = 0; i < h.pool.options().max_sessions_per_plan; ++i) {
    util::StatusOr<SessionPool::Lease> lease = h.pool.Checkout(cached, 0);
    ASSERT_TRUE(lease.ok());
    held.push_back(std::move(*lease));
  }
  const std::vector<runtime::Tensor> inputs =
      serenity::testing::RandomInputsFor(cached->result.scheduled_graph, 1);
  util::StatusOr<std::vector<runtime::Tensor>> shed =
      client->Infer(plan->hash, inputs, /*deadline_seconds=*/0.05);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), util::StatusCode::kResourceExhausted);
  EXPECT_GT(client->retry_after_millis(), 0u);

  // Capacity back: the same request now serves.
  held.clear();
  EXPECT_TRUE(client->Infer(plan->hash, inputs).ok());
}

TEST(TcpServer, DrainStopsNewWorkAndJoinFinishes) {
  Harness h;
  const graph::Graph g = models::MakeSwiftNetCellA();
  util::StatusOr<TcpClient> client = TcpClient::Connect(h.server.port());
  ASSERT_TRUE(client.ok());
  util::StatusOr<RemotePlan> plan = client->Plan(serialize::ToText(g));
  ASSERT_TRUE(plan.ok());

  ASSERT_TRUE(client->Drain().ok());
  EXPECT_TRUE(h.server.draining());

  // New connections are rejected (shed reply or refused outright).
  util::StatusOr<TcpClient> late = TcpClient::Connect(h.server.port());
  if (late.ok()) {
    util::StatusOr<std::string> health = late->Health();
    EXPECT_FALSE(health.ok());
  }
  h.server.Join();
  const TcpServerStats stats = h.server.stats();
  EXPECT_TRUE(stats.draining);
  EXPECT_GE(stats.replies_ok, 2u);  // plan + drain replies made it out
}

TEST(TcpServer, AdmissionQueueOverflowSheds) {
  TcpServerOptions options;
  options.num_workers = 1;   // one connection in service at a time
  options.max_pending = 1;   // one connection may wait
  Harness h(options);

  // Occupy the single worker with a held-open connection — the completed
  // roundtrip proves the worker popped it off the admission queue.
  util::StatusOr<TcpClient> holder = TcpClient::Connect(h.server.port());
  ASSERT_TRUE(holder.ok());
  ASSERT_TRUE(holder->Health().ok());

  // This connection fills the one admission slot (it sends nothing and
  // just waits for a worker).
  util::StatusOr<TcpClient> queued = TcpClient::Connect(h.server.port());
  ASSERT_TRUE(queued.ok());

  // Every further connection must now be shed at admission,
  // deterministically, with the structured retry-after reply.
  int sheds = 0;
  for (int i = 0; i < 3; ++i) {
    util::StatusOr<TcpClient> extra = TcpClient::Connect(h.server.port());
    ASSERT_TRUE(extra.ok());
    util::StatusOr<std::string> health = extra->Health();
    ASSERT_FALSE(health.ok());
    EXPECT_EQ(health.status().code(), util::StatusCode::kResourceExhausted);
    EXPECT_GT(extra->retry_after_millis(), 0u);
    ++sheds;
  }
  EXPECT_EQ(sheds, 3);
  EXPECT_EQ(h.server.stats().admission_sheds, 3u);

  // Release the worker: the queued connection gets served after all.
  holder->Close();
  EXPECT_TRUE(queued->Health(/*timeout_seconds=*/10.0).ok());
}

TEST(TcpServer, ConcurrentClientsAllBitIdentical) {
  TcpServerOptions options;
  options.num_workers = 4;
  Harness h(options);
  const graph::Graph g = models::MakeSwiftNetCellC();
  util::StatusOr<TcpClient> planner = TcpClient::Connect(h.server.port());
  ASSERT_TRUE(planner.ok());
  util::StatusOr<RemotePlan> plan = planner->Plan(serialize::ToText(g));
  ASSERT_TRUE(plan.ok());
  const std::shared_ptr<const CachedPlan> cached =
      h.service.cache().Lookup(plan->hash);
  ASSERT_NE(cached, nullptr);

  constexpr int kClients = 4;
  constexpr int kRequests = 8;
  std::vector<std::string> divergences(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      util::StatusOr<TcpClient> client = TcpClient::Connect(h.server.port());
      if (!client.ok()) {
        divergences[static_cast<std::size_t>(c)] = client.status().ToString();
        return;
      }
      for (int r = 0; r < kRequests; ++r) {
        const std::uint64_t seed =
            static_cast<std::uint64_t>(c) * 1000 + static_cast<std::uint64_t>(r);
        const std::vector<runtime::Tensor> inputs =
            serenity::testing::RandomInputsFor(cached->result.scheduled_graph,
                                               seed);
        util::StatusOr<std::vector<runtime::Tensor>> sinks =
            client->Infer(plan->hash, inputs, /*deadline_seconds=*/30.0);
        if (!sinks.ok()) {
          divergences[static_cast<std::size_t>(c)] = sinks.status().ToString();
          return;
        }
        runtime::ReferenceExecutor reference(cached->result.scheduled_graph);
        reference.Run(inputs, cached->plan.schedule);
        const std::string divergence = serenity::testing::DescribeSinkDivergence(
            *sinks, reference.SinkValues());
        if (!divergence.empty()) {
          divergences[static_cast<std::size_t>(c)] = divergence;
          return;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(divergences[static_cast<std::size_t>(c)], "") << "client " << c;
  }
  const SessionPoolStats pool = h.pool.stats();
  EXPECT_EQ(pool.checkouts, static_cast<std::uint64_t>(kClients * kRequests));
  EXPECT_EQ(pool.returns, pool.checkouts);
  EXPECT_EQ(pool.sessions_leased, 0u);
}

TEST(TcpServer, SteadyInferRequestsAllocateNothingOnTheServer) {
  Harness h;
  const graph::Graph g = models::MakeSwiftNetCellA();
  util::StatusOr<TcpClient> client = TcpClient::Connect(h.server.port());
  ASSERT_TRUE(client.ok());
  util::StatusOr<RemotePlan> plan = client->Plan(serialize::ToText(g));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const std::shared_ptr<const CachedPlan> cached =
      h.service.cache().Lookup(plan->hash);
  ASSERT_NE(cached, nullptr);
  const std::vector<runtime::Tensor> inputs =
      serenity::testing::RandomInputsFor(cached->result.scheduled_graph, 11);

  // Warm-up builds the pooled session, its activation block and the
  // connection's buffers.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client->Infer(plan->hash, inputs).ok());
  }
  // From frame read to frame write, a request then allocates nothing:
  // inputs are read in place, the reply is encoded into the receive
  // buffer, and the lease reuses the session and its block.
  constexpr int kRequests = 16;
  const OtherThreadAllocations server;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(client->Infer(plan->hash, inputs).ok());
  }
  EXPECT_EQ(server.count(), 0u)
      << "server-side heap allocations over " << kRequests
      << " warm infer requests";
}

TEST(TcpServer, ZooRoundRobinOnOneConnectionIsBitIdentical) {
  // All nine cells on one connection, smallest and largest requests
  // alternating, so the reused receive and reply buffers grow and shrink
  // between requests. Every reply is the reference executor's, bit for
  // bit, and once every buffer has reached its size a round allocates
  // nothing on the server.
  Harness h;
  util::StatusOr<TcpClient> client = TcpClient::Connect(h.server.port());
  ASSERT_TRUE(client.ok());
  struct Served {
    std::string name;
    graph::GraphHash hash;
    std::vector<runtime::Tensor> inputs;
    std::vector<runtime::Tensor> expect;
    std::size_t request_bytes = 0;
  };
  std::vector<Served> cells;
  std::uint64_t seed = 100;
  for (const models::BenchmarkCell& cell : models::AllBenchmarkCells()) {
    util::StatusOr<RemotePlan> plan =
        client->Plan(serialize::ToText(cell.factory()));
    ASSERT_TRUE(plan.ok()) << cell.group << " / " << cell.name << ": "
                           << plan.status().ToString();
    const std::shared_ptr<const CachedPlan> cached =
        h.service.cache().Lookup(plan->hash);
    ASSERT_NE(cached, nullptr);
    Served served;
    served.name = cell.group + " / " + cell.name;
    served.hash = plan->hash;
    served.inputs = serenity::testing::RandomInputsFor(
        cached->result.scheduled_graph, ++seed);
    runtime::ReferenceExecutor reference(cached->result.scheduled_graph);
    reference.Run(served.inputs, cached->plan.schedule);
    served.expect = reference.SinkValues();
    for (const runtime::Tensor& input : served.inputs) {
      served.request_bytes += wire::TensorWireBytes(input.shape());
    }
    cells.push_back(std::move(served));
  }
  ASSERT_EQ(cells.size(), 9u);
  std::sort(cells.begin(), cells.end(), [](const Served& a, const Served& b) {
    return a.request_bytes < b.request_bytes;
  });
  std::vector<const Served*> order;
  for (std::size_t lo = 0, hi = cells.size(); lo < hi;) {
    order.push_back(&cells[lo++]);
    if (lo < hi) order.push_back(&cells[--hi]);
  }

  for (int round = 0; round < 3; ++round) {
    const OtherThreadAllocations server;
    for (const Served* cell : order) {
      util::StatusOr<std::vector<runtime::Tensor>> sinks =
          client->Infer(cell->hash, cell->inputs);
      ASSERT_TRUE(sinks.ok()) << cell->name << ": "
                              << sinks.status().ToString();
      EXPECT_EQ(serenity::testing::DescribeSinkDivergence(*sinks,
                                                          cell->expect),
                "")
          << cell->name << " in round " << round;
    }
    if (round > 0) {
      EXPECT_EQ(server.count(), 0u)
          << "server-side heap allocations in round " << round;
    }
  }
}

}  // namespace
}  // namespace serenity::serve
