// Cross-module integration tests: the full SERENITY pipeline against every
// benchmark cell, with end-to-end invariants spanning scheduler, rewriter,
// allocator, hierarchy simulator, serializer and reference runtime.
#include <gtest/gtest.h>

#include "alloc/arena_planner.h"
#include "core/pipeline.h"
#include "memsim/hierarchy_sim.h"
#include "models/zoo.h"
#include "rewrite/rewriter.h"
#include "runtime/executor.h"
#include "runtime/tensor.h"
#include "sched/baselines.h"
#include "sched/beam.h"
#include "sched/schedule.h"
#include "serialize/serialize.h"
#include "util/rng.h"

namespace serenity {
namespace {

class EveryCellTest
    : public ::testing::TestWithParam<models::BenchmarkCell> {};

TEST_P(EveryCellTest, FullPipelineProducesValidOptimalSchedules) {
  const graph::Graph g = GetParam().factory();
  const core::PipelineResult full = core::Pipeline().Run(g);
  ASSERT_TRUE(full.status.ok()) << full.status.ToString();
  EXPECT_TRUE(sched::IsTopologicalOrder(full.scheduled_graph, full.schedule));

  core::PipelineOptions dp_only;
  dp_only.enable_rewriting = false;
  const core::PipelineResult dp = core::Pipeline(dp_only).Run(g);
  ASSERT_TRUE(dp.status.ok());

  // SERENITY's central inequality chain.
  const std::int64_t tflite =
      sched::PeakFootprint(g, sched::TfLiteOrderSchedule(g));
  EXPECT_LE(dp.peak_bytes, tflite);
  EXPECT_LE(full.peak_bytes, dp.peak_bytes);
}

TEST_P(EveryCellTest, DpMatchesSoftBudgetedAndPartitionedVariants) {
  const graph::Graph g = GetParam().factory();
  core::PipelineOptions a;  // everything on, rewriting off
  a.enable_rewriting = false;
  core::PipelineOptions b = a;
  b.enable_soft_budgeting = false;
  core::PipelineOptions c = a;
  c.enable_partitioning = false;
  const auto ra = core::Pipeline(a).Run(g);
  const auto rb = core::Pipeline(b).Run(g);
  const auto rc = core::Pipeline(c).Run(g);
  ASSERT_TRUE(ra.status.ok() && rb.status.ok() && rc.status.ok());
  EXPECT_EQ(ra.peak_bytes, rb.peak_bytes);
  EXPECT_EQ(ra.peak_bytes, rc.peak_bytes);
}

TEST_P(EveryCellTest, ArenaPlanIsSound) {
  const graph::Graph g = GetParam().factory();
  const core::PipelineResult full = core::Pipeline().Run(g);
  ASSERT_TRUE(full.status.ok());
  const alloc::ArenaPlan plan =
      alloc::PlanArena(full.scheduled_graph, full.schedule);
  EXPECT_TRUE(alloc::ValidatePlacements(plan));
  EXPECT_GE(plan.arena_bytes, full.peak_bytes);
}

TEST_P(EveryCellTest, TrafficNeverNegativeAndBoundedBySumOfActivations) {
  const graph::Graph g = GetParam().factory();
  const sched::Schedule s = sched::TfLiteOrderSchedule(g);
  std::int64_t total_activation_bytes = 0;
  for (graph::BufferId b = 0; b < g.num_buffers(); ++b) {
    total_activation_bytes += g.buffer(b).size_bytes;
  }
  memsim::SimOptions options;
  options.onchip_bytes = 128 * 1024;
  const memsim::SimResult r = memsim::SimulateHierarchy(g, s, options);
  ASSERT_TRUE(r.feasible);
  EXPECT_GE(r.read_bytes, 0);
  EXPECT_GE(r.write_bytes, 0);
  // Each page is written back at most once per production and read back at
  // most once per subsequent use; the schedule touches each buffer at most
  // (1 + consumers) times, giving a loose sanity ceiling.
  EXPECT_LE(r.write_bytes, total_activation_bytes *
                               static_cast<std::int64_t>(g.num_nodes()));
}

TEST_P(EveryCellTest, SerializationRoundTripsTheRewrittenGraph) {
  const graph::Graph g = GetParam().factory();
  const rewrite::RewriteResult rw = rewrite::RewriteGraph(g);
  const graph::Graph back =
      serialize::FromText(serialize::ToText(rw.graph));
  EXPECT_EQ(serialize::ToText(back), serialize::ToText(rw.graph));
  // The round-tripped graph schedules to the same optimum.
  const core::DpResult a = core::ScheduleDp(rw.graph);
  const core::DpResult b = core::ScheduleDp(back);
  ASSERT_EQ(a.status, core::DpStatus::kSolution);
  ASSERT_EQ(b.status, core::DpStatus::kSolution);
  EXPECT_EQ(a.peak_bytes, b.peak_bytes);
}

TEST_P(EveryCellTest, BeamBracketsTheOptimum) {
  const graph::Graph g = GetParam().factory();
  const core::DpResult dp = core::ScheduleDp(g);
  ASSERT_EQ(dp.status, core::DpStatus::kSolution);
  sched::BeamOptions narrow;
  narrow.width = 4;
  const sched::BeamResult beam = sched::ScheduleBeam(g, narrow);
  EXPECT_GE(beam.peak_bytes, dp.peak_bytes);
  EXPECT_LE(beam.peak_bytes,
            sched::PeakFootprint(g, sched::KahnFifoSchedule(g)) * 2);
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, EveryCellTest, ::testing::ValuesIn(models::AllBenchmarkCells()),
    [](const ::testing::TestParamInfo<models::BenchmarkCell>& info) {
      std::string name = info.param.group + "_" + info.param.name;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(Integration, RewritingPlusExecutionOnEveryConcatCell) {
  // End-to-end semantic check on the cells that actually rewrite:
  // schedule the rewritten graph with the full pipeline, execute original
  // and rewritten in their respective schedules, compare outputs.
  for (const models::BenchmarkCell& cell : models::AllBenchmarkCells()) {
    const graph::Graph g = cell.factory();
    const core::PipelineResult full = core::Pipeline().Run(g);
    ASSERT_TRUE(full.status.ok());
    if (full.rewrite_report.TotalPatterns() == 0) continue;

    util::Rng rng(17);
    std::vector<runtime::Tensor> inputs;
    for (const graph::Node& n : g.nodes()) {
      if (n.kind == graph::OpKind::kInput) {
        inputs.push_back(runtime::Tensor::Random(n.shape, rng));
      }
    }
    runtime::ReferenceExecutor original(g);
    original.Run(inputs);
    runtime::ReferenceExecutor rewritten(full.scheduled_graph);
    rewritten.Run(inputs, full.schedule);  // the memory-optimal order
    const auto a = original.SinkValues();
    const auto b = rewritten.SinkValues();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_LE(a[i].MaxAbsDiff(b[i]), 5e-3f)
          << cell.group << "/" << cell.name;
    }
  }
}

TEST(Integration, BudgetedCompilationContract) {
  // The user-facing contract: given a hard budget above the optimum, the
  // pipeline produces a schedule within it; below the optimum, the DP
  // reports no solution rather than silently overshooting.
  const graph::Graph g =
      models::FindBenchmarkCell("SwiftNet HPD", "Cell B").factory();
  const core::DpResult optimal = core::ScheduleDp(g);
  ASSERT_EQ(optimal.status, core::DpStatus::kSolution);

  core::DpOptions within;
  within.budget_bytes = optimal.peak_bytes + 1024;
  const core::DpResult ok = core::ScheduleDp(g, within);
  ASSERT_EQ(ok.status, core::DpStatus::kSolution);
  EXPECT_LE(ok.peak_bytes, within.budget_bytes);

  core::DpOptions impossible;
  impossible.budget_bytes = optimal.peak_bytes / 2;
  EXPECT_EQ(core::ScheduleDp(g, impossible).status,
            core::DpStatus::kNoSolution);
}

}  // namespace
}  // namespace serenity
