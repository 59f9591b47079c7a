// Shared pieces of the perfbench binary: workload inputs, the in-process
// serving stack, the result report and the statistics every phase uses.
//
// layers.cc holds the planning side (cold planning through
// serve::SchedulerService, the plan oracles, and the traced replay of the
// planning path from public calls) and the serving side (the TCP stack, the
// closed-loop load, and the traced replay of one infer request). main.cc
// strings them into the two workloads.
#ifndef SERENITY_PERFBENCH_BENCH_H_
#define SERENITY_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "runtime/tensor.h"
#include "serve/plan_cache.h"
#include "serve/scheduler_service.h"
#include "serve/session_pool.h"
#include "serve/tcp_client.h"
#include "serve/tcp_server.h"

namespace serenity::perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> values);
// Linearly interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
// 0 for an empty sample.
double GeoMean(const std::vector<double>& values);

// Adds the elapsed milliseconds of its scope to *ms. A null slot reads no
// clock, so the untraced replay of a path runs the same calls span-free.
class ScopedSpan {
 public:
  explicit ScopedSpan(double* ms)
      : ms_(ms), start_(ms != nullptr ? Clock::now() : Clock::time_point{}) {}
  ~ScopedSpan() {
    if (ms_ != nullptr) *ms_ += SecondsSince(start_) * 1e3;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  double* ms_;
  Clock::time_point start_;
};

// Metric values in insertion order, printed as the result's "metrics".
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  std::string ToJson() const;

 private:
  struct Entry {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

// Operations attempted and failed, and whether every output oracle held.
// A failure is a shed, a non-OK reply or a failed plan; a wrong output
// also clears `correct`, which makes the command exit non-zero.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;

  void Fail(const std::string& why);
  void Wrong(const std::string& why);
  void Merge(const Outcome& other);
};

// One input graph with its TFLite baseline: declaration order, planned by
// the same greedy-by-size arena allocator the served plans use.
struct WorkloadGraph {
  std::string label;
  graph::Graph graph;
  std::int64_t tflite_arena_bytes = 0;
};

// The paper's nine cells (plan_zoo, serve_infer).
std::vector<WorkloadGraph> ZooGraphs();

// Every timing is scaled to a reference speed. On a host shared with other
// tenants, the speed of every core swings by up to 1.6x, for seconds to
// minutes at a time, so the median of a run tracks the host more than the
// program. The benchmark runs a fixed loop of its own next to each measured
// interval (random reads from a 4 MiB table) and multiplies the interval
// by kReferenceLoopSeconds over the loop's time around it. A scaled time
// is the time the interval would take on a host that runs the loop in
// kReferenceLoopSeconds.
inline constexpr double kReferenceLoopSeconds = 0.001;

// CPU seconds the reference loop takes on the calling thread now: the
// median of three runs, the first of which also warms the caches. CPU
// time, not wall time, so the benchmark's own threads preempting the loop
// do not count as a slow host.
double ReferenceLoopSeconds();

// The factor that scales an interval to reference speed, from the loop's
// times just before and just after it.
inline double SpeedScale(double loop_before, double loop_after) {
  return 2 * kReferenceLoopSeconds / (loop_before + loop_after);
}

// Peak resident set of this process so far, from getrusage.
double PeakRssMb();

// Heap allocations made by the calling thread so far (alloc_count.cc).
std::uint64_t ThreadAllocations();

// ---------------------------------------------------------------- planning

using PlanPtr = std::shared_ptr<const serve::CachedPlan>;

struct ColdPlans {
  std::vector<PlanPtr> plans;  // the first round's plan, per graph
  // Seconds of each SchedulerService::Schedule call at reference speed,
  // per graph.
  std::vector<std::vector<double>> seconds;
};

// Plans every graph cold, each call on a fresh SchedulerService with the
// serving defaults, round after round in a seeded order until
// `budget_seconds` have passed (at least `min_rounds` rounds). A call that
// fails or serves a plan short of kExact is a failure and gives no sample.
// Every round must serve the first round's schedule again.
ColdPlans PlanCold(const std::vector<WorkloadGraph>& graphs,
                   std::uint64_t seed, double budget_seconds, int min_rounds,
                   Outcome* outcome);

// The plan oracles: the schedule is a topological order of the scheduled
// graph, alloc::ValidatePlanForGraph is clean, the quality is kExact, and
// the peak equals that of an unseeded core::ScheduleDp on the scheduled
// graph. A graph left with no plan at all is a wrong output too: its
// plan time would otherwise drop out of plan_s_total and read as a gain.
void CheckPlans(const std::vector<WorkloadGraph>& graphs,
                const std::vector<PlanPtr>& plans, Outcome* outcome);

// The sums trace.coverage and trace.overhead are made of, in ms.
struct TraceHealth {
  double layers_ms = 0;    // summed layer spans
  double e2e_ms = 0;       // the untraced end-to-end call
  double traced_ms = 0;    // the replay with its spans
  double untraced_ms = 0;  // the same replay without spans
};

// Replays the planning path of SchedulerService::Schedule from public calls
// with a span around each layer, next to an untraced Schedule on a fresh
// service and a span-free replay, round after round for `budget_seconds`
// (at least one round). Writes the planning per-layer metrics.
TraceHealth TracePlanning(const std::vector<WorkloadGraph>& graphs,
                          double budget_seconds, Outcome* outcome,
                          Report* report);

// ----------------------------------------------------------------- serving

// Client connections of the closed-loop load, one client thread each.
inline constexpr int kConnections = 4;

// An in-process serving stack on an ephemeral localhost port. The server
// has one worker more than there are load connections, so the trace
// connection never queues behind a load connection.
class ServingStack {
 public:
  ServingStack();
  ~ServingStack();  // closes the clients, then drains and joins the server
  ServingStack(const ServingStack&) = delete;
  ServingStack& operator=(const ServingStack&) = delete;

  serve::TcpClient Connect();

  serve::SchedulerService service;
  serve::SessionPool pool;
  serve::TcpServer server;
  std::vector<serve::TcpClient> clients;  // the load connections
};

// A served graph with the requests that exercise it.
struct ServedCell {
  std::string label;
  PlanPtr plan;                         // as cached by the stack's service
  std::vector<runtime::Tensor> inputs;  // seeded request inputs
  std::vector<runtime::Tensor> expect;  // ReferenceExecutor sinks
};

// Plans each graph through the plan verb on one control connection, which
// is closed afterwards (a lingering connection would pin a server worker).
// Appends each call's seconds, at reference speed, to `seconds` (one vector
// per graph) and returns the cached plans, null where planning failed.
std::vector<PlanPtr> PlanOverWire(ServingStack& stack,
                                  const std::vector<WorkloadGraph>& graphs,
                                  std::vector<std::vector<double>>* seconds,
                                  Outcome* outcome);

// Inserts plans made elsewhere into the stack's plan cache.
void AdoptPlans(ServingStack& stack, const std::vector<PlanPtr>& plans);

// One cell per non-null plan, with seeded inputs for its scheduled graph.
std::vector<ServedCell> MakeCells(const std::vector<WorkloadGraph>& graphs,
                                  const std::vector<PlanPtr>& plans,
                                  std::uint64_t seed);

// Runs the ReferenceExecutor under each cell's schedule for `expect`.
void ComputeReferenceSinks(std::vector<ServedCell>* cells);

// Builds every plan's pooled sessions, one per load connection, and runs
// each once; then opens the load connections and sends one infer per cell
// on each.
void WarmStack(ServingStack& stack, const std::vector<ServedCell>& cells);

// The completed requests of a load phase, all at reference speed.
struct LoadResult {
  std::vector<double> latency_ms;
  double seconds = 0;  // the time the phase served them in
};

// The deployment of freshly planned graphs: one InferenceSession per cell
// (kAuto kernels) in this thread, cycling through the cells as
// RunClosedLoop does, each Run timed and its sinks compared bit for bit
// with the reference, for `seconds`. The phase's time is the summed Run
// time, so the oracle's own checks stay out of the throughput.
LoadResult RunInProcess(const std::vector<ServedCell>& cells,
                        std::uint64_t seed, double seconds, Outcome* outcome);

// Closed loop: each load connection sends its next Infer as soon as the
// previous reply arrives, for `seconds`, cycling through `cells` in a fresh
// seeded order each round. Every reply is compared bit for bit with the
// reference sinks.
LoadResult RunClosedLoop(ServingStack& stack,
                         const std::vector<ServedCell>& cells,
                         std::uint64_t seed, double seconds,
                         Outcome* outcome);

// Times one-connection Infer roundtrips and replays the server's steps for
// each cell in-process, weighting cells by the uniform request mix, for
// `budget_seconds` (at least three passes). Writes the serving per-layer
// metrics.
TraceHealth TraceServing(ServingStack& stack,
                         const std::vector<ServedCell>& cells,
                         double budget_seconds, Outcome* outcome,
                         Report* report);

}  // namespace serenity::perfbench

#endif  // SERENITY_PERFBENCH_BENCH_H_
