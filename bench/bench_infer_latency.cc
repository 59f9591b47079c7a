// End-to-end inference latency through the serve path: every zoo cell is
// planned by a SchedulerService, opened as an InferenceSession, and
// executed out of its planned arena.
//
// Deterministic metrics per cell (exact-match gated by
// tools/check_bench_regression.py):
//   * arena_bytes           — the planned activation arena
//   * touched_peak_bytes    — highest arena byte actually written by a
//                             canary-measured inference; must equal
//                             arena_bytes ("measured peak == planned peak")
//   * allocs_per_inference  — heap allocations during a timed Run; the
//                             binary overrides operator new to count them
//                             and CHECK-fails unless the count is ZERO
//   * session_heap_bytes    — heap bytes requested while building a
//                             session, beyond its planned arena: the
//                             weights, fused-cell scratch, views and plan
//                             copy it holds, the arena block's alignment
//                             slack, and a few KB of construction
//                             temporaries. Counted by the same operator new
//                             override as requested sizes, which (unlike
//                             the allocator's chunk sizes) repeat exactly.
//   * nodes / plan_text_bytes — schedule length and serialized plan size
// Timing (report-only): every row's session is built first, then timed in
// interleaved rounds (each round runs every session once to warm it and
// times the next kTimedRunsPerRound Runs), so a slow stretch of a shared
// host lands on every row alike. infer_seconds is the median over all
// rounds, infer_seconds_q1/_q3 its quartiles.
//
// The binary also certifies, per cell, that the arena executor's sink
// values are bit-identical to the ReferenceExecutor's under the served
// schedule — the whole-zoo version of arena_executor_property_test.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "runtime/executor.h"
#include "runtime/kernel_backend.h"
#include "serialize/plan.h"
#include "serve/inference_session.h"
#include "testing/alloc_counter.h"
#include "testing/runtime_inputs.h"
#include "testing/sink_compare.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/stopwatch.h"


namespace {

using namespace serenity;

constexpr int kTimingRounds = 9;
constexpr int kTimedRunsPerRound = 2;

struct CellRun {
  std::string label;
  runtime::Backend backend = runtime::Backend::kAuto;
  std::int64_t nodes = 0;
  std::int64_t arena_bytes = 0;
  std::int64_t touched_peak_bytes = 0;
  std::int64_t plan_text_bytes = 0;
  std::int64_t session_heap_bytes = 0;
  std::uint64_t allocs_per_inference = 0;
  // The timed session, its inputs, and one entry per timed Run.
  std::unique_ptr<serve::InferenceSession> session;
  std::vector<runtime::Tensor> inputs;
  std::vector<double> seconds;
};

// Plans and certifies one cell on one backend, and builds the session the
// timing rounds run.
CellRun SetUpCell(serve::SchedulerService& service,
                  const models::BenchmarkCell& cell,
                  runtime::Backend backend) {
  CellRun run;
  run.label = bench::CellLabel(cell);
  run.backend = backend;
  const graph::Graph g = cell.factory();

  // Certification session: canary-measured peak + reference bit-identity.
  serve::InferenceSessionOptions measured;
  measured.executor.measure_touched_peak = true;
  measured.executor.backend = backend;
  serve::InferenceSession certify =
      serve::InferenceSession::Open(service, g, measured);
  run.inputs = testing::RandomInputsFor(certify.graph(), 0xbe9c4);
  certify.Run(run.inputs);
  run.nodes = static_cast<std::int64_t>(certify.plan().plan.schedule.size());
  run.arena_bytes = certify.arena_bytes();
  run.touched_peak_bytes = certify.executor().touched_peak_bytes();
  run.plan_text_bytes = static_cast<std::int64_t>(
      serialize::PlanToText(certify.plan().plan).size());
  SERENITY_CHECK_EQ(run.touched_peak_bytes, run.arena_bytes)
      << run.label << ": an inference did not touch the planned peak";

  runtime::ReferenceExecutor reference(certify.graph());
  reference.Run(run.inputs, certify.plan().plan.schedule);
  const std::string divergence = testing::DescribeSinkDivergence(
      certify.executor().SinkValues(), reference.SinkValues());
  SERENITY_CHECK(divergence.empty())
      << run.label << ": arena executor diverges from reference: "
      << divergence;

  // Timed session: no canary passes. Its construction is heap-counted; the
  // plan is a cache hit by now, fetched before the count starts.
  const serve::ServeResult served = service.Schedule(g);
  SERENITY_CHECK(served.plan != nullptr) << served.status.ToString();
  serve::InferenceSessionOptions timed;
  timed.executor.backend = backend;
  const std::int64_t requested_before = testing::ThreadRequestedBytes();
  run.session =
      std::make_unique<serve::InferenceSession>(served.plan, timed);
  run.session_heap_bytes = testing::ThreadRequestedBytes() -
                           requested_before - run.arena_bytes;
  // Reserved here so growth never lands inside a counted Run.
  run.seconds.reserve(kTimingRounds * kTimedRunsPerRound);
  return run;
}

// One timing round for one row: a warming Run, then kTimedRunsPerRound
// timed and allocation-counted Runs.
void TimeRound(CellRun& run) {
  run.session->Run(run.inputs);
  for (int rep = 0; rep < kTimedRunsPerRound; ++rep) {
    const std::uint64_t before = testing::ThreadAllocationCount();
    util::Stopwatch clock;
    run.session->Run(run.inputs);
    const std::uint64_t allocs = testing::ThreadAllocationCount() - before;
    run.seconds.push_back(clock.ElapsedSeconds());
    SERENITY_CHECK_EQ(allocs, 0u)
        << run.label << ": a timed inference heap-allocated";
    run.allocs_per_inference = allocs;
  }
}

// The requested-backend row set is fixed (machine-independent) so the CI
// baseline compare sees the same rows everywhere; an unavailable ISA
// backend resolves to the blocked kernels (runtime::ResolveBackend), which
// the "resolved" column makes visible.
std::vector<runtime::Backend> RowBackends(const std::string& backend_flag) {
  if (!backend_flag.empty()) {
    const std::optional<runtime::Backend> parsed =
        runtime::ParseBackend(backend_flag);
    SERENITY_CHECK(parsed.has_value())
        << "unknown --backend=" << backend_flag
        << " (want reference|blocked|avx2|auto)";
    return {*parsed};
  }
  return {runtime::Backend::kReference, runtime::Backend::kBlocked,
          runtime::Backend::kAvx2};
}

// Returns false iff a requested --json write failed.
bool PrintRows(const std::string& json_path,
               const std::string& backend_flag) {
  std::printf("Inference latency through InferenceSession (plan once, run "
              "out of the planned arena)\n\n");
  std::printf("%-32s %-10s %-10s %6s %10s %10s %7s %12s %12s %12s\n",
              "cell", "backend", "resolved", "nodes", "arena KB",
              "heap KB", "allocs", "q1 s", "median s", "q3 s");
  bench::PrintRule(132);
  serve::ServeOptions options;
  options.num_workers = 2;
  serve::SchedulerService service(options);
  std::vector<CellRun> runs;
  for (const models::BenchmarkCell& cell : models::AllBenchmarkCells()) {
    for (const runtime::Backend backend : RowBackends(backend_flag)) {
      runs.push_back(SetUpCell(service, cell, backend));
    }
  }
  for (int round = 0; round < kTimingRounds; ++round) {
    for (CellRun& run : runs) TimeRound(run);
  }
  bench::JsonRows rows;
  for (const CellRun& run : runs) {
    const double q1 = util::Percentile(run.seconds, 25);
    const double median = util::Percentile(run.seconds, 50);
    const double q3 = util::Percentile(run.seconds, 75);
    std::printf("%-32s %-10s %-10s %6lld %10.1f %10.1f %7llu %12.6f %12.6f "
                "%12.6f\n",
                run.label.c_str(), runtime::ToString(run.backend),
                runtime::ToString(runtime::ResolveBackend(run.backend)),
                static_cast<long long>(run.nodes), bench::Kb(run.arena_bytes),
                bench::Kb(run.session_heap_bytes),
                static_cast<unsigned long long>(run.allocs_per_inference), q1,
                median, q3);
    rows.Begin();
    rows.Field("cell", run.label);
    rows.Field("backend", std::string(runtime::ToString(run.backend)));
    rows.Field("nodes", run.nodes);
    rows.Field("arena_bytes", run.arena_bytes);
    rows.Field("touched_peak_bytes", run.touched_peak_bytes);
    rows.Field("plan_text_bytes", run.plan_text_bytes);
    rows.Field("session_heap_bytes", run.session_heap_bytes);
    rows.Field("allocs_per_inference",
               static_cast<std::int64_t>(run.allocs_per_inference));
    rows.Field("infer_seconds", median);
    rows.Field("infer_seconds_q1", q1);
    rows.Field("infer_seconds_q3", q3);
  }
  bench::PrintRule(132);
  std::printf("\nall cells x backends: touched peak == planned arena, 0 "
              "allocations per inference, sinks bit-identical to the "
              "reference executor\n\n");
  if (!json_path.empty()) return rows.WriteTo(json_path);
  return true;
}

void BM_InferLatency(benchmark::State& state) {
  const models::BenchmarkCell& cell = models::AllBenchmarkCells()
      [static_cast<std::size_t>(state.range(0))];
  serve::SchedulerService service;
  serve::InferenceSession session =
      serve::InferenceSession::Open(service, cell.factory());
  const std::vector<runtime::Tensor> inputs =
      testing::RandomInputsFor(session.graph(), 0xbe9c4);
  for (auto _ : state) {
    session.Run(inputs);
    benchmark::DoNotOptimize(session.executor().SinkViews());
  }
  state.SetLabel(bench::CellLabel(cell));
}
BENCHMARK(BM_InferLatency)->DenseRange(0, 2)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = serenity::bench::TakeJsonFlag(&argc, argv);
  const std::string backend =
      serenity::bench::TakePrefixFlag("--backend=", &argc, argv);
  const bool json_ok = PrintRows(json_path, backend);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return json_ok ? 0 : 1;
}
