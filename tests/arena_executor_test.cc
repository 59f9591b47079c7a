// Unit tests for the plan-driven arena executor: bit-identity with the
// reference executor, the measured-peak == planned-arena invariant, the
// zero-allocation guarantee, and the static plan certification that keeps
// corrupt plans from executing.
#include "runtime/arena_executor.h"

#include <gtest/gtest.h>


#include <algorithm>
#include <optional>

#include "core/pipeline.h"
#include "graph/builder.h"
#include "models/randwire.h"
#include "models/swiftnet.h"
#include "models/zoo.h"
#include "rewrite/rewriter.h"
#include "runtime/executor.h"
#include "sched/baselines.h"
#include "serialize/plan.h"
#include "testing/alloc_counter.h"
#include "testing/runtime_inputs.h"
#include "testing/sink_compare.h"
#include "util/rng.h"


namespace serenity::runtime {
namespace {

using graph::GraphBuilder;
using graph::NodeId;
using graph::TensorShape;

void ExpectBitIdentical(const std::vector<Tensor>& a,
                        const std::vector<Tensor>& b) {
  EXPECT_EQ(serenity::testing::DescribeSinkDivergence(a, b), "");
}

TEST(ArenaExecutor, BitIdenticalToReferenceOnPipelinePlan) {
  const graph::Graph g = models::MakeSwiftNet();
  const core::PipelineResult r = core::Pipeline().Run(g);
  ASSERT_TRUE(r.status.ok());
  const serialize::ExecutionPlan plan =
      serialize::MakePlan(r.scheduled_graph, r.schedule);

  const std::vector<Tensor> inputs =
      serenity::testing::RandomInputsFor(r.scheduled_graph, 42);
  ReferenceExecutor reference(r.scheduled_graph);
  reference.Run(inputs, r.schedule);
  ArenaExecutor arena(r.scheduled_graph, plan);
  arena.Run(inputs);
  ExpectBitIdentical(arena.SinkValues(), reference.SinkValues());
}

TEST(ArenaExecutor, RewrittenTwinSharesArenaBytesCorrectly) {
  // In-place accumulation and concat views bind into the same placements;
  // outputs must still match the unrewritten graph's function.
  const graph::Graph original = models::MakeSwiftNetCellA();
  const rewrite::RewriteResult rw = rewrite::RewriteGraph(original);
  ASSERT_GT(rw.report.TotalPatterns(), 0);
  const sched::Schedule s = sched::GreedyMemorySchedule(rw.graph);
  const serialize::ExecutionPlan plan = serialize::MakePlan(rw.graph, s);

  const std::vector<Tensor> inputs =
      serenity::testing::RandomInputsFor(rw.graph, 7);
  ReferenceExecutor reference(rw.graph);
  reference.Run(inputs, s);
  ArenaExecutor arena(rw.graph, plan);
  arena.Run(inputs);
  ExpectBitIdentical(arena.SinkValues(), reference.SinkValues());
}

TEST(ArenaExecutor, TouchedPeakEqualsPlannedArena) {
  const graph::Graph g = models::MakeSwiftNetCellB();
  const sched::Schedule s = sched::GreedyMemorySchedule(g);
  const serialize::ExecutionPlan plan = serialize::MakePlan(g, s);

  ArenaExecutorOptions options;
  options.measure_touched_peak = true;
  ArenaExecutor arena(g, plan, options);
  EXPECT_EQ(arena.touched_peak_bytes(), -1);  // no Run yet
  arena.Run(serenity::testing::RandomInputsFor(g, 3));
  EXPECT_EQ(arena.touched_peak_bytes(), plan.arena.arena_bytes);
  EXPECT_EQ(arena.arena_bytes(), plan.arena.arena_bytes);
}

TEST(ArenaExecutor, ZeroHeapAllocationsPerInference) {
  const graph::Graph g = models::MakeSwiftNetCellA();
  const core::PipelineResult r = core::Pipeline().Run(g);
  ASSERT_TRUE(r.status.ok());
  const serialize::ExecutionPlan plan =
      serialize::MakePlan(r.scheduled_graph, r.schedule);
  const std::vector<Tensor> inputs =
      serenity::testing::RandomInputsFor(r.scheduled_graph, 11);
  ArenaExecutor arena(r.scheduled_graph, plan);

  arena.Run(inputs);  // cold run: also must not allocate, but warm it anyway
  for (int i = 0; i < 3; ++i) {
    const std::uint64_t before = serenity::testing::ThreadAllocationCount();
    arena.Run(inputs);
    EXPECT_EQ(serenity::testing::ThreadAllocationCount() - before, 0u)
        << "inference " << i;
  }
  // The zero-copy sink accessors allocate nothing either.
  const std::uint64_t before = serenity::testing::ThreadAllocationCount();
  const std::vector<const Tensor*>& sinks = arena.SinkViews();
  EXPECT_EQ(serenity::testing::ThreadAllocationCount() - before, 0u);
  EXPECT_FALSE(sinks.empty());
}

TEST(ArenaExecutor, SinkViewsAliasTheArena) {
  const graph::Graph g = models::MakeSwiftNetCellC();
  const sched::Schedule s = sched::TfLiteOrderSchedule(g);
  const serialize::ExecutionPlan plan = serialize::MakePlan(g, s);
  ArenaExecutor arena(g, plan);
  arena.Run(serenity::testing::RandomInputsFor(g, 9));
  const std::vector<Tensor> copies = arena.SinkValues();
  ASSERT_EQ(copies.size(), arena.SinkViews().size());
  for (std::size_t i = 0; i < copies.size(); ++i) {
    EXPECT_EQ(copies[i].ToVector(), arena.SinkViews()[i]->ToVector());
  }
}

// Bytes a kFusedCell node's scratch takes: its pre-depthwise sum plus its
// depthwise output.
std::int64_t FusedScratchBytes(const graph::Graph& g, const graph::Node& node) {
  const TensorShape in = g.node(node.inputs[0]).shape;
  return (in.NumElements() +
          graph::InferDepthwiseShape(in, node.conv).NumElements()) *
         static_cast<std::int64_t>(sizeof(float));
}

// The fused nodes run one at a time, so an executor keeps one scratch pair
// sized to the largest fused node instead of a pair per node. Its heap
// beyond the arena and the (passed-in) weights is that pair plus per-node
// bookkeeping. Two Runs on different inputs then pin that the shared
// scratch carries nothing across nodes or across Runs.
TEST(ArenaExecutor, FusedScratchIsSizedToTheLargestFusedNode) {
  if (!serenity::testing::ByteTrackingAvailable()) {
    GTEST_SKIP() << "heap byte tracking needs malloc_usable_size";
  }
  // Views, operand lists, placements and the plan copy: well under this
  // many bytes per node, and far below one fused node's scratch.
  constexpr std::int64_t kPerNodeOverheadBytes = 512;
  std::vector<graph::Graph> graphs;
  for (const models::BenchmarkCell& cell : models::AllBenchmarkCells()) {
    graph::Graph g = cell.factory();
    const bool fused = std::any_of(
        g.nodes().begin(), g.nodes().end(), [](const graph::Node& node) {
          return node.kind == graph::OpKind::kFusedCell;
        });
    if (fused) graphs.push_back(std::move(g));
  }
  ASSERT_EQ(graphs.size(), 5u);  // the RandWire cells
  for (int seed = 0; seed < 4; ++seed) {
    models::RandWireParams p;
    p.num_nodes = 6 + 3 * seed;
    p.seed = 211 + static_cast<std::uint64_t>(seed);
    p.channels = 4 + 4 * seed;
    p.spatial = 8;
    p.input_spatial = 8 + 8 * (seed % 2);
    p.name = "seeded_randwire";
    graphs.push_back(models::MakeRandWireCell(p));
  }

  {
    // The process's first executor also runs one-time static set-up; keep
    // that out of the measured constructions.
    const graph::Graph& g = graphs.front();
    ArenaExecutor warm(g, serialize::MakePlan(g, sched::TfLiteOrderSchedule(g)));
  }
  for (const graph::Graph& g : graphs) {
    std::int64_t largest = 0;
    for (const graph::Node& node : g.nodes()) {
      if (node.kind == graph::OpKind::kFusedCell) {
        largest = std::max(largest, FusedScratchBytes(g, node));
      }
    }
    ASSERT_GT(largest, 0) << g.name();
    const sched::Schedule s = sched::GreedyMemorySchedule(g);
    const serialize::ExecutionPlan plan = serialize::MakePlan(g, s);
    const std::shared_ptr<const GraphWeights> weights =
        MaterializeGraphWeights(g);
    const std::vector<Tensor> inputs_a =
        serenity::testing::RandomInputsFor(g, 5);
    const std::vector<Tensor> inputs_b =
        serenity::testing::RandomInputsFor(g, 6);

    for (const Backend backend : {Backend::kBlocked, Backend::kAvx2}) {
      const std::string label =
          g.name() + " on " + ToString(ResolveBackend(backend));
      ArenaExecutorOptions options;
      options.backend = backend;
      const std::int64_t before = serenity::testing::ThreadLiveBytes();
      ArenaExecutor arena(g, plan, options, weights);
      const std::int64_t held =
          serenity::testing::ThreadLiveBytes() - before;
      EXPECT_EQ(arena.weights().get(), weights.get()) << label;
      // The arena block carries a cache line of alignment slack.
      const std::int64_t beyond_arena = held - (plan.arena.arena_bytes + 64);
      EXPECT_LE(beyond_arena,
                2 * largest + kPerNodeOverheadBytes * g.num_nodes())
          << label << ": " << beyond_arena << " bytes outside the arena";

      for (const std::vector<Tensor>* inputs : {&inputs_a, &inputs_b}) {
        ReferenceExecutor reference(g);
        reference.Run(*inputs, s);
        arena.Run(*inputs);
        ExpectBitIdentical(arena.SinkValues(), reference.SinkValues());
      }
    }
  }
}

// Executors bound to a caller's block own no activation memory. Two plans
// take turns in one block (the second's fused-cell scratch lands where the
// first's arena was), and a Bind to another block moves the views with no
// allocation: every Run still gives the reference's sink bytes and touches
// exactly its plan's arena, and the sinks live in the block bound last.
TEST(ArenaExecutor, ExecutorsShareACallerBlockAndRebindWithoutAllocating) {
  const graph::Graph dense = models::MakeSwiftNetCellA();
  models::RandWireParams p;
  p.num_nodes = 10;
  p.seed = 307;
  p.channels = 8;
  p.spatial = 8;
  p.input_spatial = 16;
  p.name = "block_randwire";
  const graph::Graph fused = models::MakeRandWireCell(p);
  const std::vector<const graph::Graph*> graphs = {&dense, &fused};
  std::vector<serialize::ExecutionPlan> plans;
  std::size_t floats = 0;
  for (const graph::Graph* g : graphs) {
    plans.push_back(serialize::MakePlan(*g, sched::GreedyMemorySchedule(*g)));
    floats = std::max(floats, ArenaExecutor::BlockFloats(*g, plans.back()));
  }
  ASSERT_GT(ArenaExecutor::BlockFloats(fused, plans[1]),
            static_cast<std::size_t>(plans[1].arena.arena_bytes) /
                sizeof(float));  // it has scratch after its arena
  ArenaBlock first(floats);
  ArenaBlock second(floats);
  ArenaExecutorOptions options;
  options.measure_touched_peak = true;
  std::vector<std::optional<ArenaExecutor>> executors(graphs.size());
  std::vector<std::vector<Tensor>> inputs;
  std::vector<std::vector<Tensor>> expected;
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const std::shared_ptr<const GraphWeights> weights =
        MaterializeGraphWeights(*graphs[i]);
    // A bound executor requests exactly its block (and the block's
    // cache line of alignment slack) less than a standalone one.
    std::int64_t before = serenity::testing::ThreadRequestedBytes();
    { ArenaExecutor standalone(*graphs[i], plans[i], options, weights); }
    const std::int64_t standalone_bytes =
        serenity::testing::ThreadRequestedBytes() - before;
    before = serenity::testing::ThreadRequestedBytes();
    executors[i].emplace(*graphs[i], plans[i], options, weights, &first);
    const std::int64_t bound_bytes =
        serenity::testing::ThreadRequestedBytes() - before;
    EXPECT_EQ(executors[i]->block_floats(),
              ArenaExecutor::BlockFloats(*graphs[i], plans[i]));
    EXPECT_EQ(standalone_bytes - bound_bytes,
              static_cast<std::int64_t>(
                  (executors[i]->block_floats() + 16) * sizeof(float)));
    inputs.push_back(serenity::testing::RandomInputsFor(*graphs[i], 11 + i));
    ReferenceExecutor reference(*graphs[i]);
    reference.Run(inputs.back(), plans[i].schedule);
    expected.push_back(reference.SinkValues());
  }
  const auto in_block = [](const ArenaBlock& block, const Tensor* sink) {
    const float* at = sink->PixelRun(0, 0, 0, 1);
    return at >= block.base() && at < block.base() + block.floats();
  };
  for (int round = 0; round < 2; ++round) {
    ArenaBlock& block = round == 0 ? first : second;
    for (std::size_t i = 0; i < executors.size(); ++i) {
      const std::uint64_t before = serenity::testing::ThreadAllocationCount();
      executors[i]->Bind(block);
      executors[i]->Run(inputs[i]);
      EXPECT_EQ(serenity::testing::ThreadAllocationCount() - before, 0u);
      ExpectBitIdentical(executors[i]->SinkValues(), expected[i]);
      EXPECT_EQ(executors[i]->touched_peak_bytes(), plans[i].arena.arena_bytes);
      EXPECT_TRUE(in_block(block, executors[i]->SinkViews()[0]));
    }
  }
}

TEST(ArenaExecutorDeath, RejectsABlockSmallerThanThePlan) {
  const graph::Graph g = models::MakeSwiftNetCellA();
  const serialize::ExecutionPlan plan =
      serialize::MakePlan(g, sched::TfLiteOrderSchedule(g));
  ArenaBlock small(ArenaExecutor::BlockFloats(g, plan) - 1);
  EXPECT_DEATH(ArenaExecutor(g, plan, {}, nullptr, &small),
               "block is smaller than");
  ArenaExecutor arena(g, plan);
  EXPECT_DEATH(arena.Bind(small), "block is smaller than");
}

// --- Static plan certification -------------------------------------------

TEST(ArenaExecutorDeath, RejectsLifetimeLies) {
  const graph::Graph g = models::MakeSwiftNetCellA();
  const sched::Schedule s = sched::TfLiteOrderSchedule(g);
  serialize::ExecutionPlan plan = serialize::MakePlan(g, s);
  // Shrink the graph input's buffer lifetime to its producing step: every
  // consumer now reads after its planned death. Non-overlap still holds
  // (shrinking frees space), so only the executor's liveness certification
  // can catch it.
  const graph::BufferId target = g.node(0).buffer;
  ASSERT_EQ(g.node(0).kind, graph::OpKind::kInput);
  bool tampered = false;
  for (alloc::BufferPlacement& p : plan.arena.placements) {
    if (p.buffer == target) {
      ASSERT_GT(p.last_step, p.first_step);
      p.last_step = p.first_step;
      tampered = true;
    }
  }
  ASSERT_TRUE(tampered);
  EXPECT_DEATH(ArenaExecutor(g, plan), "outside its planned lifetime");
}

TEST(ArenaExecutorDeath, RejectsWrongPlacementSize) {
  const graph::Graph g = models::MakeSwiftNetCellA();
  const sched::Schedule s = sched::TfLiteOrderSchedule(g);
  serialize::ExecutionPlan plan = serialize::MakePlan(g, s);
  plan.arena.placements.front().size -= 4;
  EXPECT_DEATH(ArenaExecutor(g, plan), "disagrees with its byte size");
}

TEST(ArenaExecutorDeath, RejectsMissingPlacement) {
  const graph::Graph g = models::MakeSwiftNetCellA();
  const sched::Schedule s = sched::TfLiteOrderSchedule(g);
  serialize::ExecutionPlan plan = serialize::MakePlan(g, s);
  plan.arena.placements.pop_back();
  EXPECT_DEATH(ArenaExecutor(g, plan), "has no placement");
}

TEST(ArenaExecutorDeath, RejectsPlanForDifferentGraph) {
  const graph::Graph g = models::MakeSwiftNetCellA();
  const serialize::ExecutionPlan plan =
      serialize::MakePlan(g, sched::TfLiteOrderSchedule(g));
  GraphBuilder b("other");
  const NodeId in = b.Input(TensorShape{1, 4, 4, 2}, "in");
  (void)b.Relu(in, "out");
  const graph::Graph other = std::move(b).Build();
  EXPECT_DEATH(ArenaExecutor(other, plan), "different node count");
}

TEST(ArenaExecutorDeath, RejectsWeightsOfAnotherGraph) {
  const graph::Graph g = models::MakeSwiftNetCellA();
  const serialize::ExecutionPlan plan =
      serialize::MakePlan(g, sched::TfLiteOrderSchedule(g));
  const std::shared_ptr<const GraphWeights> other =
      MaterializeGraphWeights(models::MakeSwiftNetCellB());
  EXPECT_DEATH(ArenaExecutor(g, plan, {}, other),
               "materialized for a different graph");
}

TEST(ArenaExecutorDeath, WrongInputCountRejected) {
  const graph::Graph g = models::MakeSwiftNetCellA();
  const serialize::ExecutionPlan plan =
      serialize::MakePlan(g, sched::TfLiteOrderSchedule(g));
  ArenaExecutor arena(g, plan);
  EXPECT_DEATH(arena.Run({}), "tensor per kInput");
}

}  // namespace
}  // namespace serenity::runtime
