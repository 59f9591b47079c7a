// End-to-end inference through the serve path: every zoo cell is planned by
// a SchedulerService, opened as an InferenceSession, and executed out of
// its planned arena, on each kernel backend.
//
// Deterministic metrics per cell (exact-match checked against
// bench/baselines/ by tools/check_bench_regression.py):
//   * arena_bytes           — the planned activation arena
//   * touched_peak_bytes    — highest arena byte actually written by a
//                             canary-measured inference; must equal
//                             arena_bytes ("measured peak == planned peak")
//   * allocs_per_inference  — heap allocations during a Run of a built
//                             session; the binary overrides operator new
//                             to count them and CHECK-fails unless the
//                             count is ZERO
//   * session_heap_bytes    — heap bytes requested while building a
//                             session, beyond its planned arena: the
//                             weights, fused-cell scratch, views and plan
//                             copy it holds, the arena block's alignment
//                             slack, and a few KB of construction
//                             temporaries. Counted by the same operator new
//                             override as requested sizes, which (unlike
//                             the allocator's chunk sizes) repeat exactly.
//   * nodes / plan_text_bytes — schedule length and serialized plan size
// Nothing here is timed: perfbench's traced serve_infer run reports the
// per-backend kernel time (runtime.run_ms.{avx2,blocked}).
//
// The binary also certifies, per cell, that the arena executor's sink
// values are bit-identical to the ReferenceExecutor's under the served
// schedule — the whole-zoo version of arena_executor_property_test.
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

namespace {

using namespace serenity;

struct CellRun {
  std::string label;
  runtime::Backend backend = runtime::Backend::kAuto;
  std::int64_t nodes = 0;
  std::int64_t arena_bytes = 0;
  std::int64_t touched_peak_bytes = 0;
  std::int64_t plan_text_bytes = 0;
  std::int64_t session_heap_bytes = 0;
  std::uint64_t allocs_per_inference = 0;
};

// Plans and certifies one cell on one backend, then builds a plain session
// (heap-counted) and runs it once (allocation-counted).
CellRun RunCell(serve::SchedulerService& service,
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

  // Plain session: no canary passes. Its construction is heap-counted; the
  // plan is a cache hit by now, fetched before the count starts.
  const serve::ServeResult served = service.Schedule(g);
  SERENITY_CHECK(served.plan != nullptr) << served.status.ToString();
  serve::InferenceSessionOptions plain;
  plain.executor.backend = backend;
  const std::int64_t requested_before = testing::ThreadRequestedBytes();
  // Heap-built, as a pooled session is: the count includes the object.
  const auto session =
      std::make_unique<serve::InferenceSession>(served.plan, plain);
  run.session_heap_bytes = testing::ThreadRequestedBytes() -
                           requested_before - run.arena_bytes;

  const std::uint64_t before = testing::ThreadAllocationCount();
  session->Run(inputs);
  run.allocs_per_inference = testing::ThreadAllocationCount() - before;
  SERENITY_CHECK_EQ(run.allocs_per_inference, 0u)
      << run.label << ": an inference heap-allocated";
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
  std::printf("Inference through InferenceSession (plan once, run out of "
              "the planned arena)\n\n");
  std::printf("%-32s %-10s %-10s %6s %10s %10s %7s\n", "cell", "backend",
              "resolved", "nodes", "arena KB", "heap KB", "allocs");
  bench::PrintRule(93);
  serve::ServeOptions options;
  options.num_workers = 2;
  serve::SchedulerService service(options);
  bench::JsonRows rows;
  for (const models::BenchmarkCell& cell : models::AllBenchmarkCells()) {
    for (const runtime::Backend backend : RowBackends(backend_flag)) {
      const CellRun run = RunCell(service, cell, backend);
      std::printf("%-32s %-10s %-10s %6lld %10.1f %10.1f %7llu\n",
                  run.label.c_str(), runtime::ToString(run.backend),
                  runtime::ToString(runtime::ResolveBackend(run.backend)),
                  static_cast<long long>(run.nodes),
                  bench::Kb(run.arena_bytes), bench::Kb(run.session_heap_bytes),
                  static_cast<unsigned long long>(run.allocs_per_inference));
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
    }
  }
  bench::PrintRule(93);
  std::printf("\nall cells x backends: touched peak == planned arena, 0 "
              "allocations per inference, sinks bit-identical to the "
              "reference executor\n\n");
  if (!json_path.empty()) return rows.WriteTo(json_path);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> flags =
      serenity::bench::ParseFlags(argc, argv, {"--json=", "--backend="});
  return PrintRows(flags[0], flags[1]) ? 0 : 1;
}
