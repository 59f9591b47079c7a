// perfbench: one command that measures SERENITY's planning and serving end
// to end, checks every output against its oracle, and prints one JSON
// result as the last line of stdout. README.md lists the workloads, the
// metrics and which layer metric should move which end-to-end metric.
//
//   serenity_perfbench --workload plan_zoo|serve_infer
//                      --seed N --seconds S --trace 0|1
//
// --trace 0 prints the end-to-end metrics, measured with no spans at all;
// --trace 1 prints the per-layer metrics of a separate traced run.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace {

using namespace serenity;
using namespace serenity::perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc % 2 != 1) return false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args->seconds > 0) ||
          args->seconds > 600) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return args->workload == "plan_zoo" || args->workload == "serve_infer";
}

// Set-up passes per run: setup_s is their median, the last one is kept.
// serve_infer's pass plans nine cells over the wire, and its passes are
// also plan_s_*'s samples there; plan_zoo's pass is milliseconds, so it
// takes more passes for a steady median.
constexpr int kServeSetupPasses = 12;
constexpr int kPlanSetupPasses = 15;

// Shares of --seconds per phase. An untraced run spends all of it on the
// workload's end-to-end phases; a traced run keeps a short end-to-end pass
// (it makes the plans and the pool state the traces read) and gives the
// rest to the two traces, the workload's own layers first.
struct Shares {
  double plan = 0;
  double load = 0;
  double trace_plan = 0;
  double trace_serve = 0;
};

Shares SharesFor(const Args& args) {
  if (args.workload == "serve_infer") {
    return args.trace ? Shares{0, 0.3, 0.25, 0.45} : Shares{0, 1.0, 0, 0};
  }
  return args.trace ? Shares{0.1, 0.05, 0.6, 0.25} : Shares{0.4, 0.6, 0, 0};
}

void ReportPlanTimes(const std::vector<std::vector<double>>& seconds,
                     Report* report) {
  double total = 0;
  std::vector<double> medians;
  for (const std::vector<double>& samples : seconds) {
    if (samples.empty()) continue;
    medians.push_back(Median(samples));
    total += medians.back();
  }
  report->Set("plan_s_total", total, "s");
  report->Set("plan_s_geomean", GeoMean(medians), "s");
}

void ReportPeakReduction(const std::vector<WorkloadGraph>& graphs,
                         const std::vector<PlanPtr>& plans, Report* report) {
  std::vector<double> ratios;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    if (plans[i] == nullptr) continue;
    ratios.push_back(static_cast<double>(graphs[i].tflite_arena_bytes) /
                     static_cast<double>(plans[i]->plan.arena.arena_bytes));
  }
  report->Set("peak_reduction_geomean", GeoMean(ratios), "x");
}

void ReportPool(const serve::SessionPoolStats& stats, Report* report) {
  report->Set("serve.pool.reuse_ratio",
              stats.checkouts == 0 ? 0.0
                                   : static_cast<double>(stats.reuses) /
                                         static_cast<double>(stats.checkouts),
              "ratio");
  report->Set("serve.pool.waits", static_cast<double>(stats.waits), "count");
  report->Set("serve.pool.creations", static_cast<double>(stats.creations),
              "count");
}

void ReportHealth(const TraceHealth& health, Report* report) {
  report->Set("trace.coverage",
              health.e2e_ms > 0 ? health.layers_ms / health.e2e_ms : 0.0,
              "ratio");
  report->Set("trace.overhead", health.traced_ms - health.untraced_ms, "ms");
}

void RunWorkload(const Args& args, Outcome* outcome, Report* e2e,
                 Report* layers) {
  const bool serving = args.workload == "serve_infer";
  const Shares share = SharesFor(args);

  // serve_infer's set-up is the serving stack with all nine cells planned
  // over the wire and every pooled session warm; plan_zoo's set-up is the
  // input graphs and their TFLite baselines.
  std::vector<double> setup_seconds;
  std::vector<WorkloadGraph> graphs;
  std::unique_ptr<ServingStack> stack;
  std::vector<PlanPtr> plans;
  std::vector<ServedCell> cells;
  std::vector<std::vector<double>> plan_seconds;
  const int passes = serving ? kServeSetupPasses : kPlanSetupPasses;
  double loop = ReferenceLoopSeconds();
  for (int pass = 0; pass < passes; ++pass) {
    stack.reset();
    const Clock::time_point start = Clock::now();
    graphs = ZooGraphs();
    if (serving) {
      stack = std::make_unique<ServingStack>();
      plans = PlanOverWire(*stack, graphs, &plan_seconds, outcome);
      cells = MakeCells(graphs, plans, args.seed);
      WarmStack(*stack, cells);
    }
    const double seconds = SecondsSince(start);
    const double next = ReferenceLoopSeconds();
    setup_seconds.push_back(seconds * SpeedScale(loop, next));
    loop = next;
  }

  LoadResult load;
  double rss_mb = 0;
  if (serving) {
    ComputeReferenceSinks(&cells);
    load = RunClosedLoop(*stack, cells, args.seed, share.load * args.seconds,
                         outcome);
    rss_mb = PeakRssMb();
  } else {
    ColdPlans cold = PlanCold(graphs, args.seed, share.plan * args.seconds,
                              args.trace ? 1 : 3, outcome);
    plans = std::move(cold.plans);
    plan_seconds = std::move(cold.seconds);
    // The planner's memory: read before the deploy phase's sessions and
    // reference executors, which are the benchmark's choices.
    rss_mb = PeakRssMb();
    // Deploy what was just planned, in-process, as an edge device would.
    cells = MakeCells(graphs, plans, args.seed);
    ComputeReferenceSinks(&cells);
    load = RunInProcess(cells, args.seed, share.load * args.seconds, outcome);
    if (args.trace) {
      // The serving trace needs the plans behind the TCP stack.
      stack = std::make_unique<ServingStack>();
      AdoptPlans(*stack, plans);
      WarmStack(*stack, cells);
    }
  }
  if (args.trace) {
    ReportPool(stack->pool.stats(), layers);
    const TraceHealth planning = TracePlanning(
        graphs, share.trace_plan * args.seconds, outcome, layers);
    const TraceHealth served = TraceServing(
        *stack, cells, share.trace_serve * args.seconds, outcome, layers);
    ReportHealth(serving ? served : planning, layers);
  }
  // rss_peak_mb was read before the oracles run: the unseeded DP is the
  // benchmark's own work and must not count as the program's memory.
  CheckPlans(graphs, plans, outcome);

  e2e->Set("setup_s", Median(setup_seconds), "s");
  ReportPlanTimes(plan_seconds, e2e);
  ReportPeakReduction(graphs, plans, e2e);
  e2e->Set("infer_ms_p50", Quantile(load.latency_ms, 0.50), "ms");
  e2e->Set("infer_ms_p99", Quantile(load.latency_ms, 0.99), "ms");
  e2e->Set("infer_per_s",
           load.seconds > 0
               ? static_cast<double>(load.latency_ms.size()) / load.seconds
               : 0.0,
           "1/s");
  e2e->Set("ok_frac",
           outcome->attempted == 0
               ? 0.0
               : static_cast<double>(outcome->attempted - outcome->failed) /
                     static_cast<double>(outcome->attempted),
           "ratio");
  e2e->Set("rss_peak_mb", rss_mb, "MB");
}

}  // namespace

int main(int argc, char** argv) {
#if defined(__GLIBC__)
  // One malloc arena for all threads. With glibc's default of up to one
  // per thread, which arena each short-lived planning worker landed in
  // moved rss_peak_mb by up to 50% between identical runs.
  mallopt(M_ARENA_MAX, 1);
#endif
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload plan_zoo|serve_infer "
                 "--seed N --seconds S --trace 0|1\n",
                 argv[0]);
    return 2;
  }
  Outcome outcome;
  Report e2e;
  Report layers;
  RunWorkload(args, &outcome, &e2e, &layers);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              outcome.correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              (args.trace ? layers : e2e).ToJson().c_str());
  return outcome.correct ? 0 : 1;
}
