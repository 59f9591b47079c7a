// Serve-path throughput: cache-cold planning vs cache-warm serving over the
// multi-graph zoo workload (all nine paper cells round-robin), at request
// batch sizes 1/8/64.
//
// Cold = a fresh SchedulerService planning every distinct graph through the
// full Pipeline. Warm = the same service answering from its PlanCache
// (hash + lookup per request). The bench verifies every warm response is
// bit-identical to a fresh Pipeline::Run before timing, and hard-fails if
// warm serving is not at least 50x the cold request rate — the serve-path
// acceptance bar, normally cleared by orders of magnitude. The rates are
// printed, never emitted: --json=PATH rows carry the request counts and the
// deterministic per-cell plan metrics (peak/arena bytes, states,
// placements) that tools/check_bench_regression.py compares exactly.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "graph/canonical_hash.h"
#include "serve/scheduler_service.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace {

using namespace serenity;

std::vector<graph::Graph> ZooGraphs() {
  std::vector<graph::Graph> graphs;
  for (const models::BenchmarkCell& cell : models::AllBenchmarkCells()) {
    graphs.push_back(cell.factory());
    graphs.back().set_name(bench::CellLabel(cell));
  }
  return graphs;
}

// Issues `total` requests round-robin over `graphs` in ScheduleBatch calls
// of `batch_size`; returns wall seconds.
double DriveWarmTraffic(serve::SchedulerService& service,
                        const std::vector<graph::Graph>& graphs,
                        int total, int batch_size) {
  util::Stopwatch clock;
  int issued = 0;
  while (issued < total) {
    std::vector<const graph::Graph*> batch;
    for (int b = 0; b < batch_size && issued < total; ++b, ++issued) {
      batch.push_back(
          &graphs[static_cast<std::size_t>(issued) % graphs.size()]);
    }
    for (const serve::ServeResult& r : service.ScheduleBatch(batch)) {
      SERENITY_CHECK(r.plan != nullptr) << r.status.ToString();
      SERENITY_CHECK(r.cache_hit) << "warm traffic must be all cache hits";
    }
  }
  return clock.ElapsedSeconds();
}

// Returns false iff a requested --json write failed.
bool RunServeBench(const std::string& json_path) {
  const std::vector<graph::Graph> graphs = ZooGraphs();
  const int num_graphs = static_cast<int>(graphs.size());

  serve::SchedulerService service;

  // ------------------------------------------------- cold: plan everything
  util::Stopwatch cold_clock;
  std::vector<serve::ServeResult> cold;
  for (const graph::Graph& g : graphs) {
    cold.push_back(service.Schedule(g));
    SERENITY_CHECK(cold.back().plan != nullptr)
        << g.name() << ": " << cold.back().status.ToString();
    SERENITY_CHECK(!cold.back().cache_hit);
  }
  const double cold_seconds = cold_clock.ElapsedSeconds();
  const double cold_rps = num_graphs / cold_seconds;

  // ------------------- verify warm responses are bit-identical to a fresh
  // Pipeline::Run before timing anything.
  for (int i = 0; i < num_graphs; ++i) {
    const graph::Graph& g = graphs[static_cast<std::size_t>(i)];
    const serve::ServeResult warm = service.Schedule(g);
    SERENITY_CHECK(warm.cache_hit) << g.name();
    const core::PipelineResult fresh =
        core::Pipeline(service.options().pipeline).Run(g);
    SERENITY_CHECK(warm.plan->result.schedule == fresh.schedule)
        << g.name() << ": cached schedule diverged from a fresh run";
    SERENITY_CHECK_EQ(warm.plan->result.peak_bytes, fresh.peak_bytes);
    SERENITY_CHECK(serialize::PlanToText(warm.plan->plan) ==
                   serialize::PlanToText(serialize::MakePlan(
                       fresh.scheduled_graph, fresh.schedule)))
        << g.name() << ": cached arena plan diverged from a fresh run";
  }

  // ---------------------------------------------- warm: batched cache hits
  std::printf("Serve-path throughput, %d-graph zoo workload "
              "(cold = full Pipeline planning, warm = plan-cache serving)\n\n",
              num_graphs);
  std::printf("%-22s %12s %12s %14s\n", "configuration", "requests",
              "wall s", "requests/s");
  bench::PrintRule(64);
  std::printf("%-22s %12d %12.4f %14.1f\n", "cold / batch 1", num_graphs,
              cold_seconds, cold_rps);

  bench::JsonRows rows;
  rows.Begin();
  rows.Field("workload", std::string("zoo"));
  rows.Field("configuration", std::string("cold"));
  rows.Field("batch_size", static_cast<std::int64_t>(1));
  rows.Field("requests", static_cast<std::int64_t>(num_graphs));

  double min_speedup = -1;
  for (const int batch_size : {1, 8, 64}) {
    const int total = 64 * num_graphs;
    const double warm_seconds =
        DriveWarmTraffic(service, graphs, total, batch_size);
    const double warm_rps = total / warm_seconds;
    const double speedup = warm_rps / cold_rps;
    if (min_speedup < 0 || speedup < min_speedup) min_speedup = speedup;
    std::printf("%-22s %12d %12.4f %14.1f  (%.0fx cold)\n",
                ("warm / batch " + std::to_string(batch_size)).c_str(),
                total, warm_seconds, warm_rps, speedup);
    rows.Begin();
    rows.Field("workload", std::string("zoo"));
    rows.Field("configuration", std::string("warm"));
    rows.Field("batch_size", static_cast<std::int64_t>(batch_size));
    rows.Field("requests", static_cast<std::int64_t>(total));
  }
  bench::PrintRule(64);

  const serve::ServiceStats stats = service.stats();
  std::printf("\nservice: %llu requests, %llu hits, %llu coalesced, "
              "%llu planned; cache holds %llu plans / %.1f KB\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.cache_hits),
              static_cast<unsigned long long>(stats.coalesced),
              static_cast<unsigned long long>(stats.planned),
              static_cast<unsigned long long>(stats.cache.entries),
              bench::Kb(stats.cache.bytes_in_use));

  SERENITY_CHECK_GE(min_speedup, 50.0)
      << "cache-warm serving must be at least 50x cache-cold planning";
  std::printf("acceptance: warm/cold speedup %.0fx >= 50x\n\n", min_speedup);

  // Deterministic per-cell plan metrics for the baseline compare.
  for (int i = 0; i < num_graphs; ++i) {
    const serve::CachedPlan& plan = *cold[static_cast<std::size_t>(i)].plan;
    rows.Begin();
    rows.Field("cell", graphs[static_cast<std::size_t>(i)].name());
    rows.Field("hash", plan.hash.ToHex());
    rows.Field("peak_bytes", plan.result.peak_bytes);
    rows.Field("arena_bytes", plan.plan.arena.arena_bytes);
    rows.Field("placements",
               static_cast<std::int64_t>(plan.plan.arena.placements.size()));
    rows.Field("states_expanded", plan.result.states_expanded);
    rows.Field("plan_text_bytes",
               static_cast<std::int64_t>(
                   serialize::PlanToText(plan.plan).size()));
  }
  if (!json_path.empty()) return rows.WriteTo(json_path);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  return RunServeBench(serenity::bench::JsonFlag(argc, argv)) ? 0 : 1;
}
