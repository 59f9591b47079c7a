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
//   * nodes / plan_text_bytes — schedule length and serialized plan size
// Timing (report-only): median seconds per inference.
//
// The binary also certifies, per cell, that the arena executor's sink
// values are bit-identical to the ReferenceExecutor's under the served
// schedule — the whole-zoo version of arena_executor_property_test.
#include <benchmark/benchmark.h>

#include <cstdio>
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

struct CellRun {
  std::string label;
  runtime::Backend backend = runtime::Backend::kAuto;
  std::int64_t nodes = 0;
  std::int64_t arena_bytes = 0;
  std::int64_t touched_peak_bytes = 0;
  std::int64_t plan_text_bytes = 0;
  std::uint64_t allocs_per_inference = 0;
  double infer_seconds = 0;
};

CellRun MeasureCell(serve::SchedulerService& service,
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
  const std::vector<runtime::Tensor> inputs =
      testing::RandomInputsFor(certify.graph(), 0xbe9c4);
  certify.Run(inputs);
  run.nodes = static_cast<std::int64_t>(certify.plan().plan.schedule.size());
  run.arena_bytes = certify.arena_bytes();
  run.touched_peak_bytes = certify.executor().touched_peak_bytes();
  run.plan_text_bytes = static_cast<std::int64_t>(
      serialize::PlanToText(certify.plan().plan).size());
  SERENITY_CHECK_EQ(run.touched_peak_bytes, run.arena_bytes)
      << run.label << ": an inference did not touch the planned peak";

  runtime::ReferenceExecutor reference(certify.graph());
  reference.Run(inputs, certify.plan().plan.schedule);
  const std::string divergence = testing::DescribeSinkDivergence(
      certify.executor().SinkValues(), reference.SinkValues());
  SERENITY_CHECK(divergence.empty())
      << run.label << ": arena executor diverges from reference: "
      << divergence;

  // Timed session: no canary passes, allocation-counted.
  serve::InferenceSessionOptions timed;
  timed.executor.backend = backend;
  serve::InferenceSession session =
      serve::InferenceSession::Open(service, g, timed);
  session.Run(inputs);  // touch everything once
  std::vector<double> seconds;
  seconds.reserve(5);  // growth must not land inside the counted window
  for (int rep = 0; rep < 5; ++rep) {
    const std::uint64_t before = testing::ThreadAllocationCount();
    util::Stopwatch clock;
    session.Run(inputs);
    const std::uint64_t allocs = testing::ThreadAllocationCount() - before;
    seconds.push_back(clock.ElapsedSeconds());
    SERENITY_CHECK_EQ(allocs, 0u)
        << run.label << ": inference " << rep << " heap-allocated";
    run.allocs_per_inference = allocs;
  }
  run.infer_seconds = util::Percentile(seconds, 50);
  return run;
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
  std::printf("%-32s %-10s %-10s %6s %10s %7s %12s\n", "cell", "backend",
              "resolved", "nodes", "arena KB", "allocs", "median s");
  bench::PrintRule(94);
  serve::ServeOptions options;
  options.num_workers = 2;
  serve::SchedulerService service(options);
  bench::JsonRows rows;
  for (const models::BenchmarkCell& cell : models::AllBenchmarkCells()) {
    for (const runtime::Backend backend : RowBackends(backend_flag)) {
      const CellRun run = MeasureCell(service, cell, backend);
      std::printf("%-32s %-10s %-10s %6lld %10.1f %7llu %12.6f\n",
                  run.label.c_str(), runtime::ToString(backend),
                  runtime::ToString(runtime::ResolveBackend(backend)),
                  static_cast<long long>(run.nodes),
                  bench::Kb(run.arena_bytes),
                  static_cast<unsigned long long>(run.allocs_per_inference),
                  run.infer_seconds);
      rows.Begin();
      rows.Field("cell", run.label);
      rows.Field("backend", std::string(runtime::ToString(backend)));
      rows.Field("nodes", run.nodes);
      rows.Field("arena_bytes", run.arena_bytes);
      rows.Field("touched_peak_bytes", run.touched_peak_bytes);
      rows.Field("plan_text_bytes", run.plan_text_bytes);
      rows.Field("allocs_per_inference",
                 static_cast<std::int64_t>(run.allocs_per_inference));
      rows.Field("infer_seconds", run.infer_seconds);
    }
  }
  bench::PrintRule(94);
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
