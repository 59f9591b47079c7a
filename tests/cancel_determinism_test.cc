// Cancellation-determinism sweep (DESIGN.md "Resource governance"): over
// 1000 random DAGs, cancelling a DP run mid-search and re-planning must
// yield a schedule bit-identical to a run that was never cancelled. This
// is the property the serving layer leans on — a client that disconnects
// and retries gets the same plan bytes, so a cancel can never poison the
// plan cache or make results depend on disconnect timing.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/dp_scheduler.h"
#include "core/pipeline.h"
#include "testing/fault_injection.h"
#include "testing/random_graphs.h"
#include "util/cancel_token.h"
#include "util/rng.h"

namespace serenity::core {
namespace {

namespace ftest = serenity::testing;

ftest::RandomDagOptions SweepDag(int seed) {
  ftest::RandomDagOptions opts;
  opts.num_ops = 6 + seed % 8;
  opts.max_channels = 3 + seed % 3;
  opts.spatial = 8;
  return opts;
}

TEST(CancelDeterminism, CancelThenRetryIsBitIdenticalAcrossThousandGraphs) {
  ftest::FaultInjector::Global().DisarmAll();
  int cancelled_runs = 0;
  for (int seed = 0; seed < 1000; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(static_cast<std::uint64_t>(seed) * 2654435761u + 17);
    const graph::Graph g =
        ftest::RandomDag(rng, SweepDag(seed), "cancel_sweep");

    // Ground truth: the uncancelled exact search.
    const DpResult baseline = ScheduleDp(g);
    ASSERT_EQ(baseline.status, DpStatus::kSolution);

    // Cancel at a seed-varied poll: the Nth cancellation check fires as if
    // the token had been set (kCancelPoll is only polled when a token is
    // attached, so the baseline above was immune).
    util::CancelToken token;
    DpOptions cancellable;
    cancellable.cancel = &token;
    {
      ftest::ScopedFault fault(ftest::FaultPoint::kCancelPoll,
                               static_cast<std::uint64_t>(seed % 7));
      const DpResult cancelled = ScheduleDp(g, cancellable);
      // Either the run unwound with kCancelled, or it finished before the
      // armed poll was reached — in which case it must already match.
      if (cancelled.status == DpStatus::kSolution) {
        EXPECT_EQ(cancelled.schedule, baseline.schedule);
        EXPECT_EQ(cancelled.peak_bytes, baseline.peak_bytes);
      } else {
        ASSERT_EQ(cancelled.status, DpStatus::kCancelled);
        EXPECT_TRUE(cancelled.schedule.empty());
        ++cancelled_runs;
      }
    }

    // The retry (same token object, never actually fired) replans from
    // scratch: bit-identical order, peak, and search-effort counters.
    const DpResult retry = ScheduleDp(g, cancellable);
    ASSERT_EQ(retry.status, DpStatus::kSolution);
    EXPECT_EQ(retry.schedule, baseline.schedule);
    EXPECT_EQ(retry.peak_bytes, baseline.peak_bytes);
    EXPECT_EQ(retry.states_expanded, baseline.states_expanded);
    EXPECT_EQ(retry.transitions, baseline.transitions);
    if (HasFatalFailure()) break;
  }
  // The sweep is vacuous if the armed polls never actually cancelled
  // anything (e.g. the hook got compiled out of the search loop).
  EXPECT_GT(cancelled_runs, 500);
  ftest::FaultInjector::Global().DisarmAll();
}

// A token fired *before* the run starts must cancel on the first poll and
// leave nothing behind; the pipeline surfaces it as a clean kCancelled
// failure and never degrades (nobody is waiting for the plan).
TEST(CancelDeterminism, PreCancelledPipelineFailsCleanlyAndRetryMatches) {
  util::Rng rng(99);
  const graph::Graph g =
      ftest::RandomDag(rng, SweepDag(3), "pre_cancelled");

  PipelineOptions options;
  options.degrade_on_deadline = true;  // must NOT be taken for a cancel
  const PipelineResult baseline = Pipeline(options).Run(g);
  ASSERT_TRUE(baseline.status.ok());

  util::CancelToken token;
  token.Cancel();
  PipelineOptions cancelled_options = options;
  cancelled_options.cancel = &token;
  const PipelineResult cancelled = Pipeline(cancelled_options).Run(g);
  EXPECT_EQ(cancelled.status.code(), util::StatusCode::kCancelled);
  EXPECT_EQ(cancelled.degrade_reason, DegradeReason::kNone);
  EXPECT_TRUE(cancelled.schedule.empty());

  const PipelineResult retry = Pipeline(options).Run(g);
  ASSERT_TRUE(retry.status.ok());
  EXPECT_EQ(retry.schedule, baseline.schedule);
  EXPECT_EQ(retry.peak_bytes, baseline.peak_bytes);
}

}  // namespace
}  // namespace serenity::core
