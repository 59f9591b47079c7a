// Concurrent serving over the TCP front end: an in-process TcpServer +
// SessionPool driven by 1/2/4/8 persistent client connections, each
// replaying the same deterministic request sequence over three SwiftNet
// cells. Every reply is checked bit-identical against a precomputed
// ReferenceExecutor run of the server's own scheduled graph.
//
// The --json=PATH rows count requests issued, replies served, bit-identity
// checks and sheds (zero in the sweep; exactly K in the overload probe,
// which saturates a 1-worker/1-slot server and counts the structured
// rejections). They must reproduce exactly on every run. Serving latency
// and throughput are perfbench's serve_infer workload.
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "runtime/executor.h"
#include "serialize/serialize.h"
#include "serve/tcp_client.h"
#include "serve/tcp_server.h"
#include "testing/runtime_inputs.h"
#include "testing/sink_compare.h"
#include "util/logging.h"

namespace {

using namespace serenity;

constexpr int kRequestsPerConnection = 8;

struct PlannedCell {
  graph::GraphHash hash;
  std::vector<runtime::Tensor> inputs;  // seed-fixed wire inputs
  std::vector<runtime::Tensor> expect;  // reference sinks, bit-exact
};

// Plans the three SwiftNet cells over the wire and precomputes the
// reference sinks each request must reproduce bit for bit.
std::vector<PlannedCell> PlanWorkingSet(serve::SchedulerService& service,
                                        serve::TcpClient& control) {
  std::vector<PlannedCell> cells;
  int index = 0;
  for (const char* name : {"Cell A", "Cell B", "Cell C"}) {
    const graph::Graph g =
        models::FindBenchmarkCell("SwiftNet HPD", name).factory();
    const util::StatusOr<serve::RemotePlan> plan =
        control.Plan(serialize::ToText(g));
    SERENITY_CHECK(plan.ok()) << plan.status().ToString();
    const std::shared_ptr<const serve::CachedPlan> cached =
        service.cache().Lookup(plan.value().hash);
    SERENITY_CHECK(cached != nullptr);
    PlannedCell cell;
    cell.hash = plan.value().hash;
    cell.inputs = serenity::testing::RandomInputsFor(
        cached->result.scheduled_graph,
        9000 + static_cast<std::uint64_t>(index));
    runtime::ReferenceExecutor reference(cached->result.scheduled_graph);
    reference.Run(cell.inputs, cached->plan.schedule);
    cell.expect = reference.SinkValues();
    cells.push_back(std::move(cell));
    ++index;
  }
  return cells;
}

struct SweepResult {
  std::uint64_t replies_ok = 0;
  std::uint64_t bit_identical = 0;
};

// C connections, each replaying the same kRequestsPerConnection-long
// sequence; every reply verified against the precomputed reference sinks.
SweepResult RunSweep(int port, const std::vector<PlannedCell>& cells,
                     int connections) {
  SweepResult result;
  std::vector<std::uint64_t> ok(static_cast<std::size_t>(connections), 0);
  std::vector<std::uint64_t> identical(static_cast<std::size_t>(connections),
                                       0);
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      util::StatusOr<serve::TcpClient> client =
          serve::TcpClient::Connect(port);
      SERENITY_CHECK(client.ok()) << client.status().ToString();
      for (int r = 0; r < kRequestsPerConnection; ++r) {
        const PlannedCell& cell =
            cells[static_cast<std::size_t>(r) % cells.size()];
        const util::StatusOr<std::vector<runtime::Tensor>> sinks =
            client.value().Infer(cell.hash, cell.inputs,
                                 /*deadline_seconds=*/60.0);
        SERENITY_CHECK(sinks.ok()) << sinks.status().ToString();
        ok[static_cast<std::size_t>(c)] += 1;
        const std::string divergence =
            serenity::testing::DescribeSinkDivergence(sinks.value(),
                                                      cell.expect);
        SERENITY_CHECK(divergence.empty()) << divergence;
        identical[static_cast<std::size_t>(c)] += 1;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int c = 0; c < connections; ++c) {
    result.replies_ok += ok[static_cast<std::size_t>(c)];
    result.bit_identical += identical[static_cast<std::size_t>(c)];
  }
  return result;
}

// Returns false iff a requested --json write failed.
bool RunConcurrentBench(const std::string& json_path) {
  serve::SchedulerService service;
  serve::SessionPool pool;
  serve::TcpServerOptions options;
  options.num_workers = 8;   // one per connection at the widest sweep point
  options.max_pending = 16;
  serve::TcpServer server(service, pool, options);
  SERENITY_CHECK(server.Start().ok());

  util::StatusOr<serve::TcpClient> control =
      serve::TcpClient::Connect(server.port());
  SERENITY_CHECK(control.ok());
  const std::vector<PlannedCell> cells =
      PlanWorkingSet(service, control.value());

  std::printf("Concurrent serving over TCP, 3-cell SwiftNet working set, "
              "%d requests per connection\n\n",
              kRequestsPerConnection);
  std::printf("%-14s %10s %10s\n", "connections", "requests", "verified");
  bench::PrintRule(36);

  bench::JsonRows rows;
  for (const int connections : {1, 2, 4, 8}) {
    const SweepResult sweep = RunSweep(server.port(), cells, connections);
    const std::uint64_t requests =
        static_cast<std::uint64_t>(connections) * kRequestsPerConnection;
    SERENITY_CHECK_EQ(sweep.replies_ok, requests);
    SERENITY_CHECK_EQ(sweep.bit_identical, requests);
    std::printf("%-14d %10llu %10llu\n", connections,
                static_cast<unsigned long long>(requests),
                static_cast<unsigned long long>(sweep.bit_identical));
    rows.Begin();
    rows.Field("configuration", std::string("sweep"));
    rows.Field("connections", static_cast<std::int64_t>(connections));
    rows.Field("requests", requests);
    rows.Field("replies_ok", sweep.replies_ok);
    rows.Field("bit_identical", sweep.bit_identical);
    rows.Field("sheds", static_cast<std::int64_t>(0));
  }
  bench::PrintRule(36);
  const serve::SessionPoolStats pool_stats = pool.stats();
  SERENITY_CHECK_EQ(pool_stats.sheds, 0u)
      << "the sweep is sized to never shed";
  std::printf("pool: %llu checkouts (%llu reuses, %llu creations), 0 sheds\n",
              static_cast<unsigned long long>(pool_stats.checkouts),
              static_cast<unsigned long long>(pool_stats.reuses),
              static_cast<unsigned long long>(pool_stats.creations));
  server.RequestDrain();
  server.Join();

  // ---------------------------------------------------- overload probe
  // A 1-worker/1-slot server whose worker is pinned by a held connection:
  // every further connection must shed at admission, exactly, with the
  // configured retry-after hint. Deterministic by construction.
  serve::TcpServerOptions tiny;
  tiny.num_workers = 1;
  tiny.max_pending = 1;
  serve::SchedulerService tiny_service;
  serve::SessionPool tiny_pool;
  serve::TcpServer probe(tiny_service, tiny_pool, tiny);
  SERENITY_CHECK(probe.Start().ok());
  util::StatusOr<serve::TcpClient> holder =
      serve::TcpClient::Connect(probe.port());
  SERENITY_CHECK(holder.ok());
  SERENITY_CHECK(holder.value().Health().ok());  // worker is now pinned
  util::StatusOr<serve::TcpClient> queued =
      serve::TcpClient::Connect(probe.port());
  SERENITY_CHECK(queued.ok());  // fills the single admission slot

  constexpr int kProbeAttempts = 5;
  int sheds = 0;
  std::uint32_t retry_after = 0;
  for (int i = 0; i < kProbeAttempts; ++i) {
    util::StatusOr<serve::TcpClient> extra =
        serve::TcpClient::Connect(probe.port());
    SERENITY_CHECK(extra.ok());
    const util::StatusOr<std::string> health = extra.value().Health();
    if (!health.ok() &&
        health.status().code() == util::StatusCode::kResourceExhausted) {
      ++sheds;
      retry_after = extra.value().retry_after_millis();
    }
  }
  SERENITY_CHECK_EQ(sheds, kProbeAttempts)
      << "overload probe must shed every surplus connection";
  std::printf("overload probe: %d/%d connections shed with retry-after "
              "%u ms\n\n",
              sheds, kProbeAttempts, retry_after);
  rows.Begin();
  rows.Field("configuration", std::string("overload_probe"));
  rows.Field("attempts", static_cast<std::int64_t>(kProbeAttempts));
  rows.Field("sheds", static_cast<std::int64_t>(sheds));
  rows.Field("retry_after_millis", static_cast<std::int64_t>(retry_after));
  probe.RequestDrain();
  probe.Join();

  if (!json_path.empty()) return rows.WriteTo(json_path);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  return RunConcurrentBench(serenity::bench::JsonFlag(argc, argv)) ? 0 : 1;
}
