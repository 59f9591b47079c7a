// Everything the workloads are made of: inputs and statistics, the planning
// layers (cold planning, plan oracles, traced replay of the planning path)
// and the serving layers (TCP stack, closed-loop load, traced replay of one
// infer request).
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <optional>
#include <thread>
#include <utility>

#include "alloc/arena_planner.h"
#include "bench.h"
#include "core/dp_scheduler.h"
#include "core/partitioner.h"
#include "core/pipeline.h"
#include "core/soft_budget.h"
#include "graph/canonical_hash.h"
#include "models/zoo.h"
#include "rewrite/rewriter.h"
#include "runtime/executor.h"
#include "runtime/kernel_backend.h"
#include "sched/baselines.h"
#include "sched/beam.h"
#include "sched/schedule.h"
#include "serialize/plan.h"
#include "serialize/serialize.h"
#include "serve/inference_session.h"
#include "serve/wire.h"
#include "testing/runtime_inputs.h"
#include "util/logging.h"
#include "util/rng.h"

namespace serenity::perfbench {

namespace {

// Failures beyond this many are counted but not described on stderr.
constexpr std::uint64_t kMaxDescribedFailures = 10;

WorkloadGraph WithBaseline(std::string label, graph::Graph graph) {
  WorkloadGraph w;
  w.tflite_arena_bytes =
      alloc::PlanArena(graph, sched::TfLiteOrderSchedule(graph)).arena_bytes;
  w.label = std::move(label);
  w.graph = std::move(graph);
  return w;
}

// Visits every index in [0, n) once per round, in a fresh seeded order each
// round. Every graph or cell gets the same share of the work, so a median
// over a mix of cells whose latencies differ tenfold does not jump between
// cells as a uniform draw's shares wobble.
class RoundRobin {
 public:
  RoundRobin(std::size_t n, std::uint64_t seed) : rng_(seed), order_(n) {
    std::iota(order_.begin(), order_.end(), std::size_t{0});
    next_ = n;
  }

  std::size_t Next() {
    if (next_ == order_.size()) {
      for (std::size_t i = order_.size(); i > 1; --i) {
        std::swap(order_[i - 1], order_[rng_.NextBounded(i)]);
      }
      next_ = 0;
    }
    return order_[next_++];
  }

 private:
  util::Rng rng_;
  std::vector<std::size_t> order_;
  std::size_t next_;
};

}  // namespace

// ------------------------------------------------------- inputs and stats

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    std::fprintf(stderr, "perfbench: %s is not finite; reporting 0\n",
                 name.c_str());
    value = 0;
  }
  entries_.push_back({name, value, unit});
}

std::string Report::ToJson() const {
  std::string out = "{";
  char number[40];
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    std::snprintf(number, sizeof(number), "%.17g", entries_[i].value);
    if (i > 0) out += ", ";
    out += "\"" + entries_[i].name + "\": {\"value\": " + number +
           ", \"unit\": \"" + entries_[i].unit + "\"}";
  }
  return out + "}";
}

void Outcome::Fail(const std::string& why) {
  if (failed < kMaxDescribedFailures) {
    std::fprintf(stderr, "perfbench: failed: %s\n", why.c_str());
  }
  ++failed;
}

void Outcome::Wrong(const std::string& why) {
  correct = false;
  Fail("wrong output: " + why);
}

void Outcome::Merge(const Outcome& other) {
  attempted += other.attempted;
  failed += other.failed;
  correct = correct && other.correct;
}

std::vector<WorkloadGraph> ZooGraphs() {
  std::vector<WorkloadGraph> graphs;
  for (const models::BenchmarkCell& cell : models::AllBenchmarkCells()) {
    graphs.push_back(
        WithBaseline(cell.group + " / " + cell.name, cell.factory()));
  }
  return graphs;
}

namespace {

double ThreadCpuSeconds() {
  timespec now{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         static_cast<double>(now.tv_nsec) * 1e-9;
}

// Keeps the reference loop's results alive.
std::atomic<std::uint64_t> reference_sink{0};

std::uint64_t XorShift(std::uint64_t x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

// The reference loop's 4 MiB table: past a core's L2, inside the shared
// L3, where other tenants' traffic on a shared host slows a core down. Read
// only, so every thread can share it without trading cache lines.
constexpr int kReferenceTableBits = 19;

const std::vector<std::uint64_t>& ReferenceTable() {
  static const std::vector<std::uint64_t> table = [] {
    std::vector<std::uint64_t> t(std::size_t{1} << kReferenceTableBits);
    std::uint64_t x = 0x2545f4914f6cdd1dull;
    for (std::uint64_t& v : t) v = x = XorShift(x);
    return t;
  }();
  return table;
}

}  // namespace

double ReferenceLoopSeconds() {
  constexpr int kSteps = 270000;
  const std::vector<std::uint64_t>& table = ReferenceTable();
  std::array<double, 3> runs{};
  for (double& run : runs) {
    const double start = ThreadCpuSeconds();
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    std::uint64_t acc = 0;
    for (int i = 0; i < kSteps; ++i) {
      x = XorShift(x);
      acc += table[(x * 0xff51afd7ed558ccdull) >> (64 - kReferenceTableBits)];
    }
    reference_sink.fetch_add(acc, std::memory_order_relaxed);
    run = ThreadCpuSeconds() - start;
  }
  std::sort(runs.begin(), runs.end());
  return runs[1];
}

double PeakRssMb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ------------------------------------------------------------- planning

namespace {

// Milliseconds one replay of the planning path spent in each layer.
struct PlanStageMs {
  double hash = 0;
  double rewrite = 0;
  double partition = 0;  // PartitionAtCuts + CombineSegmentSchedules
  double greedy = 0;
  double beam = 0;
  double search = 0;
  double arena = 0;
  double text = 0;

  double Sum() const {
    return hash + rewrite + partition + greedy + beam + search + arena + text;
  }
};

// What one replay of the planning path produced.
struct ReplayedPlan {
  bool ok = false;
  sched::Schedule schedule;
  std::int64_t peak_bytes = -1;
  std::uint64_t states_expanded = 0;
  std::uint64_t states_pruned = 0;
  core::PruneBreakdown pruned;
  std::uint64_t max_level_states = 0;
  std::uint64_t beam_states = 0;
  int attempts = 0;
  int segments = 0;
  int nodes_added = 0;
  std::vector<double> seed_gaps;  // per segment: seed peak / exact peak
  std::int64_t arena_bytes = 0;
  std::size_t plan_text_bytes = 0;
};

// The work SchedulerService::Schedule does for a cache miss with the
// serving defaults (Pipeline::Run, then the plan cache's arena plan and
// plan text), rebuilt from the layers' public calls so each call can carry
// its own span. `ms` null = no spans.
ReplayedPlan ReplayPlanningPath(const graph::Graph& graph,
                                const core::PipelineOptions& options,
                                PlanStageMs* ms) {
  const auto slot = [ms](double PlanStageMs::*field) {
    return ms == nullptr ? nullptr : &(ms->*field);
  };
  ReplayedPlan out;
  {
    ScopedSpan span(slot(&PlanStageMs::hash));
    (void)graph::CanonicalGraphHash(graph);
  }
  std::optional<rewrite::RewriteResult> rewritten;
  {
    ScopedSpan span(slot(&PlanStageMs::rewrite));
    rewritten = rewrite::RewriteGraph(graph, options.rewrite);
  }
  const graph::Graph& scheduled = rewritten->graph;
  out.nodes_added =
      rewritten->report.nodes_after - rewritten->report.nodes_before;
  core::Partition partition;
  {
    ScopedSpan span(slot(&PlanStageMs::partition));
    partition = core::PartitionAtCuts(scheduled, options.partition);
  }
  out.segments = static_cast<int>(partition.segments.size());

  std::vector<sched::Schedule> segment_schedules;
  for (const core::Segment& segment : partition.segments) {
    const graph::Graph& sub = segment.subgraph;
    std::int64_t seed = 0;
    {
      ScopedSpan span(slot(&PlanStageMs::greedy));
      seed = sched::PeakFootprint(sub, sched::GreedyMemorySchedule(sub));
    }
    {
      ScopedSpan span(slot(&PlanStageMs::beam));
      sched::BeamOptions beam_options;
      beam_options.width = options.incumbent_beam_width;
      beam_options.prune_above_bytes = seed;
      const sched::BeamResult beam = sched::ScheduleBeam(sub, beam_options);
      out.beam_states += beam.states_expanded;
      if (beam.status.ok()) seed = std::min(seed, beam.peak_bytes);
    }
    core::SoftBudgetOptions sb_options = options.soft_budget;
    sb_options.incumbent_bytes = std::min(sb_options.incumbent_bytes, seed);
    sb_options.enable_bound_pruning =
        options.enable_bound_pruning && sb_options.enable_bound_pruning;
    sb_options.adaptive_parallelism =
        sb_options.adaptive_parallelism || options.adaptive_parallelism;
    std::optional<core::SoftBudgetResult> sb;
    {
      ScopedSpan span(slot(&PlanStageMs::search));
      sb = core::ScheduleWithSoftBudget(sub, sb_options);
    }
    if (sb->status != core::DpStatus::kSolution) return out;
    out.states_expanded += sb->TotalStates();
    out.states_pruned += sb->TotalPrunedByBound();
    out.pruned += sb->TotalPruned();
    out.max_level_states =
        std::max(out.max_level_states, sb->max_level_states);
    out.attempts += static_cast<int>(sb->attempts.size());
    out.seed_gaps.push_back(static_cast<double>(seed) /
                            static_cast<double>(sb->peak_bytes));
    segment_schedules.push_back(std::move(sb->schedule));
  }
  {
    ScopedSpan span(slot(&PlanStageMs::partition));
    out.schedule = core::CombineSegmentSchedules(partition, segment_schedules);
    if (!sched::IsTopologicalOrder(scheduled, out.schedule)) return out;
    out.peak_bytes = sched::PeakFootprint(scheduled, out.schedule);
  }
  std::optional<serialize::ExecutionPlan> plan;
  {
    ScopedSpan span(slot(&PlanStageMs::arena));
    plan = serialize::MakePlan(scheduled, out.schedule);
  }
  {
    ScopedSpan span(slot(&PlanStageMs::text));
    out.plan_text_bytes = serialize::PlanToText(*plan).size();
  }
  out.arena_bytes = plan->arena.arena_bytes;
  out.ok = true;
  return out;
}

bool SameAsServed(const ReplayedPlan& replay,
                  const serve::CachedPlan& served) {
  return replay.ok && replay.schedule == served.plan.schedule &&
         replay.peak_bytes == served.result.peak_bytes &&
         replay.states_expanded == served.result.states_expanded &&
         replay.arena_bytes == served.plan.arena.arena_bytes;
}

double MedianOf(const std::vector<PlanStageMs>& samples,
                double PlanStageMs::*field) {
  std::vector<double> values;
  values.reserve(samples.size());
  for (const PlanStageMs& s : samples) values.push_back(s.*field);
  return Median(std::move(values));
}

// One cold Schedule call on a fresh service; the service's start-up and
// shutdown stay outside the returned seconds.
serve::ServeResult ScheduleCold(const graph::Graph& graph, double* seconds) {
  serve::SchedulerService service;
  const Clock::time_point start = Clock::now();
  serve::ServeResult served = service.Schedule(graph);
  *seconds = SecondsSince(start);
  return served;
}

}  // namespace

ColdPlans PlanCold(const std::vector<WorkloadGraph>& graphs,
                   std::uint64_t seed, double budget_seconds, int min_rounds,
                   Outcome* outcome) {
  ColdPlans cold;
  cold.plans.resize(graphs.size());
  cold.seconds.resize(graphs.size());
  RoundRobin order(graphs.size(), seed);
  double loop = ReferenceLoopSeconds();
  const Clock::time_point start = Clock::now();
  for (int round = 0;
       round < min_rounds || SecondsSince(start) < budget_seconds; ++round) {
    for (std::size_t k = 0; k < graphs.size(); ++k) {
      const std::size_t g = order.Next();
      ++outcome->attempted;
      double seconds = 0;
      const serve::ServeResult served =
          ScheduleCold(graphs[g].graph, &seconds);
      const double next = ReferenceLoopSeconds();
      seconds *= SpeedScale(loop, next);
      loop = next;
      if (!served.status.ok() || served.plan == nullptr) {
        outcome->Fail(graphs[g].label + ": " + served.status.ToString());
        continue;
      }
      if (served.plan->quality != core::PlanQuality::kExact) {
        outcome->Fail(graphs[g].label + ": served a " +
                      std::string(core::ToString(served.plan->quality)) +
                      " plan");
        continue;
      }
      cold.seconds[g].push_back(seconds);
      if (cold.plans[g] == nullptr) {
        cold.plans[g] = served.plan;
      } else if (served.plan->plan.schedule != cold.plans[g]->plan.schedule) {
        outcome->Wrong(graphs[g].label + ": schedule changed between rounds");
      }
    }
  }
  return cold;
}

void CheckPlans(const std::vector<WorkloadGraph>& graphs,
                const std::vector<PlanPtr>& plans, Outcome* outcome) {
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const PlanPtr& plan = plans[i];
    if (plan == nullptr) {
      outcome->Wrong(graphs[i].label + ": no plan was served");
      continue;
    }
    const graph::Graph& graph = plan->result.scheduled_graph;
    const std::string& name = graph.name();
    const sched::Schedule& schedule = plan->plan.schedule;
    if (plan->quality != core::PlanQuality::kExact) {
      outcome->Wrong(name + ": served a " +
                     std::string(core::ToString(plan->quality)) + " plan");
    }
    if (!sched::IsTopologicalOrder(graph, schedule)) {
      outcome->Wrong(name + ": schedule is not a topological order");
      continue;
    }
    const std::vector<std::string> problems =
        alloc::ValidatePlanForGraph(plan->plan.arena, graph, schedule);
    if (!problems.empty()) outcome->Wrong(name + ": " + problems.front());
    const core::DpResult oracle = core::ScheduleDp(graph);
    const std::int64_t peak = sched::PeakFootprint(graph, schedule);
    if (oracle.status != core::DpStatus::kSolution ||
        oracle.peak_bytes != peak) {
      outcome->Wrong(name + ": peak " + std::to_string(peak) +
                     " differs from the unseeded DP's " +
                     std::to_string(oracle.peak_bytes));
    }
  }
}

TraceHealth TracePlanning(const std::vector<WorkloadGraph>& graphs,
                          double budget_seconds, Outcome* outcome,
                          Report* report) {
  const core::PipelineOptions options = serve::ServeOptions{}.pipeline;
  const std::size_t n = graphs.size();
  std::vector<ReplayedPlan> first(n);
  std::vector<std::vector<PlanStageMs>> stages(n);
  std::vector<std::vector<double>> schedule_ms(n), traced_ms(n),
      untraced_ms(n);
  std::size_t matched = 0;
  const Clock::time_point start = Clock::now();
  for (int round = 0; round == 0 || SecondsSince(start) < budget_seconds;
       ++round) {
    for (std::size_t i = 0; i < n; ++i) {
      const graph::Graph& graph = graphs[i].graph;
      ++outcome->attempted;
      double seconds = 0;
      const serve::ServeResult served = ScheduleCold(graph, &seconds);
      if (!served.status.ok() || served.plan == nullptr) {
        outcome->Fail(graphs[i].label + ": " + served.status.ToString());
        continue;
      }
      schedule_ms[i].push_back(seconds * 1e3);

      // Each replay runs on a fresh thread, as the service's planning worker
      // does: the heap a thread allocates from moved the planning time by
      // up to 15% on this path. The traced and span-free replays swap order
      // every round, so a warm-up advantage of the second one cancels out
      // of trace.overhead.
      PlanStageMs ms;
      ReplayedPlan replay;
      for (const bool with_spans : {round % 2 == 0, round % 2 != 0}) {
        std::thread([&] {
          const Clock::time_point t = Clock::now();
          if (with_spans) {
            replay = ReplayPlanningPath(graph, options, &ms);
            traced_ms[i].push_back(SecondsSince(t) * 1e3);
          } else {
            (void)ReplayPlanningPath(graph, options, nullptr);
            untraced_ms[i].push_back(SecondsSince(t) * 1e3);
          }
        }).join();
      }
      stages[i].push_back(ms);

      if (round == 0) {
        if (SameAsServed(replay, *served.plan)) {
          ++matched;
        } else {
          std::fprintf(stderr,
                       "perfbench: the replayed planning path differs from "
                       "the served plan on %s\n",
                       graphs[i].label.c_str());
        }
        first[i] = std::move(replay);
      }
    }
  }

  TraceHealth health;
  double hash = 0, rewrite = 0, partition = 0, greedy = 0, beam = 0,
         search = 0, arena = 0, text = 0, overhead = 0;
  std::uint64_t expanded = 0, pruned_total = 0, max_level = 0,
                beam_states = 0, attempts = 0, segments = 0, nodes_added = 0,
                text_bytes = 0, arena_bytes = 0;
  core::PruneBreakdown pruned;
  std::vector<double> seed_gaps;
  for (std::size_t i = 0; i < n; ++i) {
    if (stages[i].empty()) continue;
    hash += MedianOf(stages[i], &PlanStageMs::hash);
    rewrite += MedianOf(stages[i], &PlanStageMs::rewrite);
    partition += MedianOf(stages[i], &PlanStageMs::partition);
    greedy += MedianOf(stages[i], &PlanStageMs::greedy);
    beam += MedianOf(stages[i], &PlanStageMs::beam);
    search += MedianOf(stages[i], &PlanStageMs::search);
    arena += MedianOf(stages[i], &PlanStageMs::arena);
    text += MedianOf(stages[i], &PlanStageMs::text);
    std::vector<double> sums;
    for (const PlanStageMs& s : stages[i]) sums.push_back(s.Sum());
    const double layers = Median(std::move(sums));
    const double e2e = Median(schedule_ms[i]);
    health.layers_ms += layers;
    health.e2e_ms += e2e;
    health.traced_ms += Median(traced_ms[i]);
    health.untraced_ms += Median(untraced_ms[i]);
    overhead += e2e - layers;

    const ReplayedPlan& r = first[i];
    expanded += r.states_expanded;
    pruned_total += r.states_pruned;
    pruned += r.pruned;
    max_level = std::max(max_level, r.max_level_states);
    beam_states += r.beam_states;
    attempts += static_cast<std::uint64_t>(r.attempts);
    segments += static_cast<std::uint64_t>(r.segments);
    nodes_added += static_cast<std::uint64_t>(r.nodes_added);
    text_bytes += r.plan_text_bytes;
    arena_bytes += static_cast<std::uint64_t>(r.arena_bytes);
    seed_gaps.insert(seed_gaps.end(), r.seed_gaps.begin(), r.seed_gaps.end());
  }
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  report->Set("core.search_ms", search, "ms");
  report->Set("core.states_expanded", count(expanded), "count");
  report->Set("core.states_pruned", count(pruned_total), "count");
  report->Set("core.prune_ratio",
              expanded + pruned_total == 0
                  ? 0.0
                  : count(pruned_total) / count(expanded + pruned_total),
              "ratio");
  report->Set("core.pruned_by_incumbent", count(pruned.incumbent), "count");
  report->Set("core.pruned_by_residual", count(pruned.residual), "count");
  report->Set("core.pruned_by_frontier_floor", count(pruned.frontier_floor),
              "count");
  report->Set("core.pruned_by_lookahead", count(pruned.lookahead), "count");
  report->Set("core.pruned_by_dominance", count(pruned.dominance), "count");
  report->Set("core.search_us_per_state",
              expanded == 0 ? 0.0 : search * 1e3 / count(expanded), "us");
  report->Set("core.soft_budget_attempts", count(attempts), "count");
  report->Set("core.max_level_states", count(max_level), "count");
  report->Set("sched.greedy_ms", greedy, "ms");
  report->Set("sched.beam_ms", beam, "ms");
  report->Set("sched.beam_states", count(beam_states), "count");
  report->Set("sched.seed_gap", GeoMean(seed_gaps), "ratio");
  report->Set("graph.hash_ms", hash, "ms");
  report->Set("rewrite.ms", rewrite, "ms");
  report->Set("rewrite.nodes_added", count(nodes_added), "count");
  report->Set("core.partition_ms", partition, "ms");
  report->Set("core.segments", count(segments), "count");
  report->Set("alloc.plan_arena_ms", arena, "ms");
  report->Set("serialize.plan_text_ms", text, "ms");
  report->Set("serialize.plan_text_bytes", count(text_bytes), "bytes");
  report->Set("serve.plan_overhead_ms", overhead, "ms");
  report->Set("alloc.arena_bytes", count(arena_bytes), "bytes");
  report->Set("trace.replay_match",
              n == 0 ? 0.0 : count(matched) / static_cast<double>(n),
              "ratio");
  return health;
}

// ------------------------------------------------------------- serving

namespace {

serve::TcpServerOptions StackOptions() {
  serve::TcpServerOptions options;
  options.num_workers = kConnections + 1;
  return options;
}

bool SameBits(const std::vector<runtime::Tensor>& got,
              const std::vector<runtime::Tensor>& expect) {
  if (got.size() != expect.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!(got[i].shape() == expect[i].shape())) return false;
    if (std::memcmp(got[i].data(), expect[i].data(),
                    got[i].size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

// The wire codec of one tensor, as TcpClient and TcpServer write it.
void AppendTensor(std::string* out, const runtime::Tensor& tensor) {
  const graph::TensorShape& s = tensor.shape();
  for (const int dim : {s.n, s.h, s.w, s.c}) {
    serve::wire::AppendU32(out, static_cast<std::uint32_t>(dim));
  }
  serve::wire::AppendF32Array(out, tensor.data(),
                              static_cast<std::uint32_t>(tensor.size()));
}

// A cell's request and reply as they cross the wire.
struct CellPayloads {
  serve::wire::Request request;
  serve::wire::Reply reply;
};

CellPayloads PayloadsFor(const ServedCell& cell) {
  CellPayloads p;
  p.request.verb = serve::wire::Verb::kInfer;
  serve::wire::AppendU64(&p.request.body, cell.plan->hash.hi);
  serve::wire::AppendU64(&p.request.body, cell.plan->hash.lo);
  serve::wire::AppendU32(&p.request.body,
                         static_cast<std::uint32_t>(cell.inputs.size()));
  for (const runtime::Tensor& t : cell.inputs) {
    AppendTensor(&p.request.body, t);
  }
  serve::wire::AppendU32(&p.reply.body,
                         static_cast<std::uint32_t>(cell.expect.size()));
  for (const runtime::Tensor& t : cell.expect) AppendTensor(&p.reply.body, t);
  return p;
}

// Microseconds of one in-process replay of the server's infer steps.
struct ServeStepUs {
  double lookup = 0;
  double checkout = 0;  // Checkout plus returning the lease
  double run = 0;
  double sink_copy = 0;
  double wire = 0;

  double Sum() const { return lookup + checkout + run + sink_copy + wire; }
};

struct ReplayedRequest {
  bool ok = false;
  std::uint64_t run_allocs = 0;
  std::uint64_t request_allocs = 0;
};

// HandleInfer's steps for one request of `cell`, in-process: plan cache
// lookup, session checkout, the run, the sink copy, the lease return, and
// the request and reply codecs. `us` null = no spans.
ReplayedRequest ReplayInfer(ServingStack& stack, const ServedCell& cell,
                            const CellPayloads& payloads, ServeStepUs* us) {
  ReplayedRequest out;
  const std::uint64_t allocs_before = ThreadAllocations();
  const bool traced = us != nullptr;
  const auto now = [traced] {
    return traced ? Clock::now() : Clock::time_point{};
  };
  const auto micros = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::micro>(b - a).count();
  };
  const Clock::time_point t0 = now();
  const PlanPtr plan = stack.service.cache().Lookup(cell.plan->hash);
  const Clock::time_point t1 = now();
  util::StatusOr<serve::SessionPool::Lease> lease =
      stack.pool.Checkout(plan, 5.0);
  const Clock::time_point t2 = now();
  if (plan == nullptr || !lease.ok()) return out;
  const std::uint64_t run_before = ThreadAllocations();
  (*lease)->Run(cell.inputs);
  out.run_allocs = ThreadAllocations() - run_before;
  const Clock::time_point t3 = now();
  const std::vector<runtime::Tensor> sinks =
      (*lease)->executor().SinkValues();
  const Clock::time_point t4 = now();
  *lease = serve::SessionPool::Lease();
  const Clock::time_point t5 = now();
  const util::StatusOr<serve::wire::Request> request =
      serve::wire::DecodeRequest(serve::wire::EncodeRequest(payloads.request));
  const util::StatusOr<serve::wire::Reply> reply =
      serve::wire::DecodeReply(serve::wire::EncodeReply(payloads.reply));
  const Clock::time_point t6 = now();
  out.request_allocs = ThreadAllocations() - allocs_before;
  if (traced) {
    us->lookup = micros(t0, t1);
    us->checkout = micros(t1, t2) + micros(t4, t5);
    us->run = micros(t2, t3);
    us->sink_copy = micros(t3, t4);
    us->wire = micros(t5, t6);
  }
  out.ok = request.ok() && reply.ok() && SameBits(sinks, cell.expect);
  return out;
}

double RunMs(serve::InferenceSession& session, const ServedCell& cell) {
  const Clock::time_point start = Clock::now();
  session.Run(cell.inputs);
  return SecondsSince(start) * 1e3;
}

serve::InferenceSession SessionOn(const ServedCell& cell,
                                  runtime::Backend backend) {
  serve::InferenceSessionOptions options;
  options.executor.backend = backend;
  util::StatusOr<serve::InferenceSession> session =
      serve::InferenceSession::Create(cell.plan, options);
  SERENITY_CHECK(session.ok()) << session.status().ToString();
  return std::move(session).value();
}

// Scales one thread's stream of request latencies to reference speed. The
// reference loop runs after every kSegmentSeconds of the phase, and each
// latency is scaled by the loops at both ends of its segment.
class ScaledSegments {
 public:
  // With `wall_time`, the phase's time is this thread's wall time (the
  // closed loop); without, it is the summed latencies (in-process runs).
  ScaledSegments(LoadResult* out, bool wall_time)
      : out_(out),
        wall_time_(wall_time),
        loop_(ReferenceLoopSeconds()),
        start_(Clock::now()) {}

  void Add(double ms) {
    pending_.push_back(ms);
    if (SecondsSince(start_) >= kSegmentSeconds) Close();
  }

  // Ends the open segment; call it once more when the phase ends.
  void Close() {
    const double wall = SecondsSince(start_);
    const double next = ReferenceLoopSeconds();
    const double scale = SpeedScale(loop_, next);
    double busy_ms = 0;
    for (const double ms : pending_) {
      out_->latency_ms.push_back(ms * scale);
      busy_ms += ms;
    }
    out_->seconds += (wall_time_ ? wall : busy_ms / 1e3) * scale;
    pending_.clear();
    loop_ = next;
    start_ = Clock::now();
  }

 private:
  static constexpr double kSegmentSeconds = 0.25;

  LoadResult* out_;
  bool wall_time_;
  double loop_;
  Clock::time_point start_;
  std::vector<double> pending_;
};

}  // namespace

ServingStack::ServingStack() : server(service, pool, StackOptions()) {
  const util::Status started = server.Start();
  SERENITY_CHECK(started.ok()) << started.ToString();
}

ServingStack::~ServingStack() {
  clients.clear();
  server.RequestDrain();
  server.Join();
}

serve::TcpClient ServingStack::Connect() {
  util::StatusOr<serve::TcpClient> client =
      serve::TcpClient::Connect(server.port());
  SERENITY_CHECK(client.ok()) << client.status().ToString();
  return std::move(client).value();
}

std::vector<PlanPtr> PlanOverWire(ServingStack& stack,
                                  const std::vector<WorkloadGraph>& graphs,
                                  std::vector<std::vector<double>>* seconds,
                                  Outcome* outcome) {
  serve::TcpClient control = stack.Connect();
  std::vector<PlanPtr> plans(graphs.size());
  seconds->resize(graphs.size());
  double loop = ReferenceLoopSeconds();
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const std::string text = serialize::ToText(graphs[i].graph);
    ++outcome->attempted;
    const Clock::time_point start = Clock::now();
    const util::StatusOr<serve::RemotePlan> remote = control.Plan(text);
    double elapsed = SecondsSince(start);
    const double next = ReferenceLoopSeconds();
    elapsed *= SpeedScale(loop, next);
    loop = next;
    if (!remote.ok()) {
      outcome->Fail(graphs[i].label + ": " + remote.status().ToString());
      continue;
    }
    (*seconds)[i].push_back(elapsed);
    plans[i] = stack.service.cache().Lookup(remote.value().hash);
    if (plans[i] == nullptr) outcome->Fail(graphs[i].label + ": not cached");
  }
  control.Close();
  return plans;
}

void AdoptPlans(ServingStack& stack, const std::vector<PlanPtr>& plans) {
  for (const PlanPtr& plan : plans) {
    if (plan != nullptr) stack.service.cache().Insert(plan->hash, plan->result);
  }
}

std::vector<ServedCell> MakeCells(const std::vector<WorkloadGraph>& graphs,
                                  const std::vector<PlanPtr>& plans,
                                  std::uint64_t seed) {
  std::vector<ServedCell> cells;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    if (plans[i] == nullptr) continue;
    ServedCell cell;
    cell.label = graphs[i].label;
    cell.plan = plans[i];
    cell.inputs = testing::RandomInputsFor(plans[i]->result.scheduled_graph,
                                           seed * 1000 + i);
    cells.push_back(std::move(cell));
  }
  return cells;
}

void ComputeReferenceSinks(std::vector<ServedCell>* cells) {
  for (ServedCell& cell : *cells) {
    runtime::ReferenceExecutor reference(cell.plan->result.scheduled_graph);
    reference.Run(cell.inputs, cell.plan->plan.schedule);
    cell.expect = reference.SinkValues();
  }
}

void WarmStack(ServingStack& stack, const std::vector<ServedCell>& cells) {
  const int sessions =
      std::min(kConnections, stack.pool.options().max_sessions_per_plan);
  for (const ServedCell& cell : cells) {
    std::vector<serve::SessionPool::Lease> leases;
    for (int s = 0; s < sessions; ++s) {
      util::StatusOr<serve::SessionPool::Lease> lease =
          stack.pool.Checkout(cell.plan, 5.0);
      SERENITY_CHECK(lease.ok()) << lease.status().ToString();
      (*lease)->Run(cell.inputs);
      leases.push_back(std::move(lease).value());
    }
  }
  while (stack.clients.size() < static_cast<std::size_t>(kConnections)) {
    stack.clients.push_back(stack.Connect());
  }
  for (serve::TcpClient& client : stack.clients) {
    for (const ServedCell& cell : cells) {
      const util::StatusOr<std::vector<runtime::Tensor>> sinks =
          client.Infer(cell.plan->hash, cell.inputs);
      SERENITY_CHECK(sinks.ok()) << sinks.status().ToString();
    }
  }
}

LoadResult RunClosedLoop(ServingStack& stack,
                         const std::vector<ServedCell>& cells,
                         std::uint64_t seed, double seconds,
                         Outcome* outcome) {
  LoadResult result;
  if (cells.empty()) return result;
  const std::size_t n = stack.clients.size();
  std::vector<LoadResult> per_client(n);
  std::vector<Outcome> outcomes(n);
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < n; ++c) {
    per_client[c].latency_ms.reserve(std::size_t{1} << 16);
    threads.emplace_back([&, c] {
      RoundRobin order(cells.size(), seed * 0x9e3779b97f4a7c15ull + c + 1);
      serve::TcpClient& client = stack.clients[c];
      ScaledSegments scaled(&per_client[c], /*wall_time=*/true);
      while (Clock::now() < end) {
        const ServedCell& cell = cells[order.Next()];
        ++outcomes[c].attempted;
        const Clock::time_point sent = Clock::now();
        const util::StatusOr<std::vector<runtime::Tensor>> sinks =
            client.Infer(cell.plan->hash, cell.inputs);
        const double ms = SecondsSince(sent) * 1e3;
        if (!sinks.ok()) {
          outcomes[c].Fail(cell.label + ": " + sinks.status().ToString());
        } else if (!SameBits(*sinks, cell.expect)) {
          outcomes[c].Wrong(cell.label +
                            ": reply differs from the reference sinks");
        } else {
          scaled.Add(ms);
        }
      }
      scaled.Close();
    });
  }
  for (std::thread& t : threads) t.join();
  // Every client ran for the whole phase, so the phase's time is their
  // mean.
  for (std::size_t c = 0; c < n; ++c) {
    result.latency_ms.insert(result.latency_ms.end(),
                             per_client[c].latency_ms.begin(),
                             per_client[c].latency_ms.end());
    result.seconds += per_client[c].seconds / static_cast<double>(n);
    outcome->Merge(outcomes[c]);
  }
  return result;
}

LoadResult RunInProcess(const std::vector<ServedCell>& cells,
                        std::uint64_t seed, double seconds,
                        Outcome* outcome) {
  LoadResult result;
  if (cells.empty()) return result;
  // Several sessions per cell, used in turn, each built behind a spacer of
  // seeded size so its arena and weights start at a different heap offset.
  // With one layout per cell, a small cell's Run time differed by up to
  // 50% between otherwise identical processes; averaging over layouts
  // keeps that out of the run-to-run spread.
  constexpr std::size_t kSessionsPerCell = 8;
  util::Rng layout_rng(seed);
  std::vector<std::vector<char>> spacers;
  std::vector<serve::InferenceSession> sessions;
  for (const ServedCell& cell : cells) {
    for (std::size_t s = 0; s < kSessionsPerCell; ++s) {
      spacers.emplace_back(64 * (1 + layout_rng.NextBounded(1024)));
      sessions.push_back(SessionOn(cell, runtime::Backend::kAuto));
      sessions.back().Run(cell.inputs);  // touch the arena once
    }
  }
  const std::size_t per_cell = kSessionsPerCell;
  std::vector<std::size_t> uses(cells.size(), 0);
  RoundRobin order(cells.size(), seed);
  result.latency_ms.reserve(std::size_t{1} << 16);
  ScaledSegments scaled(&result, /*wall_time=*/false);
  double busy_seconds = 0;
  while (busy_seconds < seconds) {
    const std::size_t i = order.Next();
    serve::InferenceSession& session =
        sessions[i * per_cell + uses[i]++ % per_cell];
    ++outcome->attempted;
    const double ms = RunMs(session, cells[i]);
    busy_seconds += ms / 1e3;
    if (!SameBits(session.executor().SinkValues(), cells[i].expect)) {
      outcome->Wrong(cells[i].label + ": sinks differ from the reference");
      continue;
    }
    scaled.Add(ms);
  }
  scaled.Close();
  return result;
}

TraceHealth TraceServing(ServingStack& stack,
                         const std::vector<ServedCell>& cells,
                         double budget_seconds, Outcome* outcome,
                         Report* report) {
  constexpr int kMinPasses = 3;
  serve::TcpClient client = stack.Connect();
  const std::size_t n = cells.size();
  std::vector<CellPayloads> payloads;
  std::vector<serve::InferenceSession> blocked, avx2;
  for (const ServedCell& cell : cells) {
    payloads.push_back(PayloadsFor(cell));
    blocked.push_back(SessionOn(cell, runtime::Backend::kBlocked));
    avx2.push_back(SessionOn(cell, runtime::Backend::kAvx2));
  }
  std::vector<std::vector<double>> roundtrip(n), lookup(n), checkout(n),
      run(n), sink_copy(n), wire(n), steps(n), traced(n), untraced(n),
      blocked_ms(n), avx2_ms(n), request_allocs(n);
  std::uint64_t max_run_allocs = 0;
  const Clock::time_point start = Clock::now();
  for (int pass = 0;
       pass < kMinPasses || SecondsSince(start) < budget_seconds; ++pass) {
    for (std::size_t i = 0; i < n; ++i) {
      const ServedCell& cell = cells[i];
      ++outcome->attempted;
      const Clock::time_point sent = Clock::now();
      const util::StatusOr<std::vector<runtime::Tensor>> sinks =
          client.Infer(cell.plan->hash, cell.inputs);
      const double roundtrip_ms = SecondsSince(sent) * 1e3;
      if (!sinks.ok()) {
        outcome->Fail(cell.label + ": " + sinks.status().ToString());
        continue;
      }
      if (!SameBits(*sinks, cell.expect)) {
        outcome->Wrong(cell.label + ": reply differs from the reference");
        continue;
      }
      roundtrip[i].push_back(roundtrip_ms);

      // Order swapped every pass, as in TracePlanning.
      ServeStepUs us;
      ReplayedRequest replay, plain;
      for (const bool with_spans : {pass % 2 == 0, pass % 2 != 0}) {
        const Clock::time_point t = Clock::now();
        if (with_spans) {
          replay = ReplayInfer(stack, cell, payloads[i], &us);
          traced[i].push_back(SecondsSince(t) * 1e3);
        } else {
          plain = ReplayInfer(stack, cell, payloads[i], nullptr);
          untraced[i].push_back(SecondsSince(t) * 1e3);
        }
      }
      if (!replay.ok || !plain.ok) {
        outcome->Wrong(cell.label + ": in-process replay diverged");
        continue;
      }
      lookup[i].push_back(us.lookup);
      checkout[i].push_back(us.checkout);
      run[i].push_back(us.run / 1e3);
      sink_copy[i].push_back(us.sink_copy);
      wire[i].push_back(us.wire);
      steps[i].push_back(us.Sum() / 1e3);
      request_allocs[i].push_back(static_cast<double>(replay.request_allocs));
      max_run_allocs =
          std::max({max_run_allocs, replay.run_allocs, plain.run_allocs});
      blocked_ms[i].push_back(RunMs(blocked[i], cell));
      avx2_ms[i].push_back(RunMs(avx2[i], cell));
    }
  }

  // Every cell weighs the same, as in the closed loop's uniform mix.
  const auto mix = [n](const std::vector<std::vector<double>>& per_cell) {
    double sum = 0;
    for (const std::vector<double>& samples : per_cell) {
      sum += Median(samples);
    }
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
  };
  double request_bytes = 0, reply_bytes = 0;
  for (const CellPayloads& p : payloads) {
    request_bytes +=
        static_cast<double>(serve::wire::EncodeRequest(p.request).size());
    reply_bytes +=
        static_cast<double>(serve::wire::EncodeReply(p.reply).size());
  }
  const double cell_count = std::max(1.0, static_cast<double>(n));
  TraceHealth health;
  health.e2e_ms = mix(roundtrip);
  health.layers_ms = mix(steps);
  health.traced_ms = mix(traced);
  health.untraced_ms = mix(untraced);
  report->Set("serve.roundtrip_ms", health.e2e_ms, "ms");
  report->Set("serve.cache_lookup_us", mix(lookup), "us");
  report->Set("serve.checkout_us", mix(checkout), "us");
  report->Set("runtime.run_ms", mix(run), "ms");
  report->Set("runtime.run_ms.blocked", mix(blocked_ms), "ms");
  report->Set("runtime.run_ms.avx2", mix(avx2_ms), "ms");
  report->Set("runtime.sink_copy_us", mix(sink_copy), "us");
  report->Set("serve.wire_us", mix(wire), "us");
  report->Set("serve.request_bytes", request_bytes / cell_count, "bytes");
  report->Set("serve.reply_bytes", reply_bytes / cell_count, "bytes");
  report->Set("serve.unattributed_ms", health.e2e_ms - health.layers_ms,
              "ms");
  report->Set("serve.allocs_per_request", mix(request_allocs), "count");
  report->Set("runtime.allocs_per_run", static_cast<double>(max_run_allocs),
              "count");
  return health;
}

}  // namespace serenity::perfbench
