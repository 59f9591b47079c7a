#include "sched/beam.h"

#include <gtest/gtest.h>

#include "core/dp_scheduler.h"
#include "graph/builder.h"
#include "models/randwire.h"
#include "models/swiftnet.h"
#include "sched/baselines.h"
#include "sched/schedule.h"
#include "testing/random_graphs.h"
#include "util/rng.h"

namespace serenity::sched {
namespace {

TEST(Beam, ValidScheduleAtEveryWidth) {
  const graph::Graph g = models::MakeSwiftNetCellA();
  for (const int width : {1, 2, 8, 64, 1024}) {
    BeamOptions options;
    options.width = width;
    const BeamResult r = ScheduleBeam(g, options);
    EXPECT_TRUE(IsTopologicalOrder(g, r.schedule)) << width;
    EXPECT_EQ(r.peak_bytes, PeakFootprint(g, r.schedule)) << width;
  }
}

TEST(Beam, WideBeamIsExactlyOptimal) {
  // With the beam wider than the true level width, no level is cut, so the
  // beam is the unpruned DP walk: same peak, same schedule, and one
  // counted expansion per DP transition.
  util::Rng rng(42);
  for (int trial = 0; trial < 10; ++trial) {
    testing::RandomDagOptions opts;
    opts.num_ops = 10;
    const graph::Graph g =
        testing::RandomDag(rng, opts, "beam_opt" + std::to_string(trial));
    const core::DpResult dp = core::ScheduleDp(g);
    ASSERT_EQ(dp.status, core::DpStatus::kSolution);
    BeamOptions wide;
    wide.width = 1 << 16;
    const BeamResult beam = ScheduleBeam(g, wide);
    ASSERT_TRUE(beam.status.ok()) << g.name();
    EXPECT_EQ(beam.peak_bytes, dp.peak_bytes) << g.name();
    EXPECT_EQ(beam.schedule, dp.schedule) << g.name();
    EXPECT_EQ(beam.states_expanded, dp.transitions) << g.name();
  }
}

TEST(Beam, NeverWorseThanOptimalAndBoundedByIt) {
  const graph::Graph g = models::MakeSwiftNetCellA();
  const core::DpResult dp = core::ScheduleDp(g);
  ASSERT_EQ(dp.status, core::DpStatus::kSolution);
  for (const int width : {1, 4, 32, 256}) {
    BeamOptions options;
    options.width = width;
    EXPECT_GE(ScheduleBeam(g, options).peak_bytes, dp.peak_bytes) << width;
  }
  BeamOptions wide;
  wide.width = 1 << 15;
  EXPECT_EQ(ScheduleBeam(g, wide).peak_bytes, dp.peak_bytes);
}

TEST(Beam, QualityImprovesWithWidthInAggregate) {
  util::Rng rng(9);
  std::int64_t narrow_total = 0;
  std::int64_t wide_total = 0;
  for (int trial = 0; trial < 8; ++trial) {
    testing::RandomDagOptions opts;
    opts.num_ops = 14;
    const graph::Graph g =
        testing::RandomDag(rng, opts, "beam_w" + std::to_string(trial));
    BeamOptions narrow;
    narrow.width = 1;
    BeamOptions wide;
    wide.width = 128;
    narrow_total += ScheduleBeam(g, narrow).peak_bytes;
    wide_total += ScheduleBeam(g, wide).peak_bytes;
  }
  EXPECT_LE(wide_total, narrow_total);
}

TEST(Beam, ScalesToGraphsBeyondDp) {
  // A 128-node RandWire cell: far beyond the oracle, fine for the beam.
  models::RandWireParams params;
  params.num_nodes = 128;
  params.k = 6;
  params.seed = 5;
  params.channels = 16;
  params.name = "huge_randwire";
  const graph::Graph g = models::MakeRandWireCell(params);
  BeamOptions options;
  options.width = 32;
  const BeamResult r = ScheduleBeam(g, options);
  EXPECT_TRUE(IsTopologicalOrder(g, r.schedule));
  // It should comfortably beat breadth-first execution on this topology.
  EXPECT_LE(r.peak_bytes, PeakFootprint(g, KahnFifoSchedule(g)));
}

TEST(BeamDeath, RejectsZeroWidth) {
  const graph::Graph g = models::MakeSwiftNetCellB();
  BeamOptions options;
  options.width = 0;
  EXPECT_DEATH(ScheduleBeam(g, options), "CHECK");
}

}  // namespace
}  // namespace serenity::sched
