// Scheduler-as-a-service, end to end: a long-lived SchedulerService takes
// scheduling requests for a zoo of irregularly wired networks, plans each
// distinct graph once, serves repeats from its plan cache (including
// structurally identical graphs built in a different node order), persists
// the cache, demonstrates a warm restart that skips re-planning entirely —
// and then *runs inference* through the warm plans: each one opens an
// InferenceSession whose ArenaExecutor executes out of the planned arena,
// printing planned vs measured-touched peak.
//
//   $ build/serenity_serve [cache_file]
//
// Fault-tolerance drill (the CI corrupt-cache smoke):
//
//   $ build/serenity_serve --warm-only [cache_file]
//
// loads a previously persisted cache — possibly damaged — and serves the
// same request set. Entries quarantined by the per-entry checksum are
// simply re-planned; the process exits 0 as long as every request ends up
// with a plan, because losing one cache entry must never cost more than
// one re-plan.
//
// Network mode (the front end serenity_loadgen talks to):
//
//   $ build/serenity_serve --serve <port> [--mem-budget=BYTES] [cache_file]
//
// starts the TCP server (port 0 = pick an ephemeral port, printed as
// "serving on port N"), warm-loads the cache if present, and serves until
// SIGTERM/SIGINT — then drains gracefully: stop accepting, finish
// in-flight requests, persist the plan cache, exit 0.
//
// --mem-budget=BYTES (suffixes k/m/g accepted) arms the resource governor:
// one server-wide byte ledger partitioned into a planning child (every
// concurrent planning run's search memory) and a sessions child (every
// pooled inference arena). Each child may use up to the whole budget, but
// the parent caps their *sum*, so planning pressure and serving pressure
// shed each other instead of the OOM killer deciding. Graphs whose minimal
// schedulable footprint provably exceeds the budget are shed at admission
// with a retry hint before any planning memory is spent. The exit summary
// and the stats verb report the governor's used/peak/denials.
#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <optional>
#include <string>
#include <vector>

#include "graph/canonical_hash.h"
#include "models/zoo.h"
#include "runtime/kernel_backend.h"
#include "serve/inference_session.h"
#include "serve/scheduler_service.h"
#include "serve/session_pool.h"
#include "serve/tcp_server.h"
#include "testing/random_graphs.h"
#include "testing/runtime_inputs.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace {

using namespace serenity;

// --backend= selection, applied to every inference session this binary
// opens (kAuto: fastest kernel backend available on this machine).
runtime::Backend g_backend = runtime::Backend::kAuto;

// --mem-budget= in bytes; 0 = ungoverned (the pre-governor behavior).
std::int64_t g_mem_budget_bytes = 0;

// Parses "262144", "256k", "64m" or "1g" (case-insensitive suffix) into
// bytes; returns false on anything else.
bool ParseByteCount(const char* text, std::int64_t* out) {
  char* end = nullptr;
  const long long value = std::strtoll(text, &end, 10);
  if (end == text || value <= 0) return false;
  std::int64_t scale = 1;
  if (*end == 'k' || *end == 'K') { scale = 1ll << 10; ++end; }
  else if (*end == 'm' || *end == 'M') { scale = 1ll << 20; ++end; }
  else if (*end == 'g' || *end == 'G') { scale = 1ll << 30; ++end; }
  if (*end != '\0') return false;
  *out = static_cast<std::int64_t>(value) * scale;
  return true;
}

const char* PathOf(const serve::ServeResult& r) {
  if (r.cache_hit) return "cache hit";
  if (r.coalesced) return "coalesced";
  return r.plan != nullptr ? "planned" : "FAILED";
}

void PrintStats(const serve::SchedulerService& service) {
  const serve::ServiceStats s = service.stats();
  std::printf("  service: %llu requests = %llu planned + %llu hits + %llu "
              "coalesced; cache %llu plans, %.1f KB\n",
              static_cast<unsigned long long>(s.requests),
              static_cast<unsigned long long>(s.planned),
              static_cast<unsigned long long>(s.cache_hits),
              static_cast<unsigned long long>(s.coalesced),
              static_cast<unsigned long long>(s.cache.entries),
              static_cast<double>(s.cache.bytes_in_use) / 1024.0);
  std::printf("  faults:  %llu load errors, %llu entries quarantined, "
              "%llu degraded plans, %llu upgrades\n",
              static_cast<unsigned long long>(s.cache.load_errors),
              static_cast<unsigned long long>(s.cache.entries_quarantined),
              static_cast<unsigned long long>(s.degraded_plans),
              static_cast<unsigned long long>(s.upgrades));
}

std::vector<graph::Graph> BuildRequests(std::size_t* distinct) {
  // The request stream: four distinct cells, each requested twice, plus a
  // relabeled twin of one of them (same structure, different node order and
  // names — the canonical hash maps it to the same plan).
  std::vector<graph::Graph> requests;
  for (const char* name : {"Cell A", "Cell B", "Cell C"}) {
    requests.push_back(models::FindBenchmarkCell("SwiftNet HPD", name)
                           .factory());
  }
  requests.push_back(
      models::FindBenchmarkCell("DARTS ImageNet", "Normal Cell").factory());
  *distinct = requests.size();
  for (std::size_t i = 0; i < *distinct; ++i) {
    requests.push_back(requests[i]);
  }
  util::Rng rng(42);
  requests.push_back(
      serenity::testing::RelabelIsomorphic(requests[0], rng, "twin"));
  return requests;
}

// --warm-only: serve from a persisted (possibly damaged) cache, re-planning
// whatever the checksum quarantined. Success = every request served.
int RunWarmOnly(const std::string& cache_path) {
  std::size_t distinct = 0;
  const std::vector<graph::Graph> requests = BuildRequests(&distinct);

  serve::ServeOptions options;
  options.num_workers = 2;
  serve::SchedulerService service(options);
  const util::StatusOr<serve::CacheLoadReport> load =
      service.cache().LoadFromFile(cache_path);
  if (!load.ok()) {
    std::fprintf(stderr, "cache '%s' unusable (%s); serving cold\n",
                 cache_path.c_str(), load.status().ToString().c_str());
  } else {
    std::printf("loaded %d plans, quarantined %d from %s\n",
                load.value().entries_loaded,
                load.value().entries_quarantined, cache_path.c_str());
  }

  int replanned = 0;
  for (std::size_t i = 0; i < distinct; ++i) {
    const serve::ServeResult r = service.Schedule(requests[i]);
    if (r.plan == nullptr) {
      std::fprintf(stderr, "request %zu failed: %s\n", i,
                   r.status.ToString().c_str());
      return 1;
    }
    if (!r.cache_hit) ++replanned;
    std::printf("  %-28s %-10s peak %8.1f KB\n",
                requests[i].name().c_str(), PathOf(r),
                static_cast<double>(r.plan->result.peak_bytes) / 1024.0);
  }
  std::printf("served %zu requests: %zu warm, %d re-planned\n", distinct,
              distinct - static_cast<std::size_t>(replanned), replanned);
  PrintStats(service);
  return 0;
}

// --serve: run the TCP front end until SIGTERM/SIGINT, then drain.
volatile std::sig_atomic_t g_stop_requested = 0;

void HandleStopSignal(int) { g_stop_requested = 1; }

int RunServer(int port, const std::string& cache_path) {
  // The resource governor: one server-wide ledger, two children. Each
  // child may individually reach the full budget, but the parent bounds
  // their sum — concurrent plannings and pooled arenas share one cap.
  const bool governed = g_mem_budget_bytes > 0;
  util::MemoryBudget root_budget(governed ? g_mem_budget_bytes : 0);
  util::MemoryBudget planning_budget(g_mem_budget_bytes, &root_budget);
  util::MemoryBudget session_budget(g_mem_budget_bytes, &root_budget);

  serve::ServeOptions serve_options;
  serve_options.num_workers = 2;
  if (governed) {
    serve_options.planning_budget = &planning_budget;
    serve_options.admission_floor_budget_bytes = g_mem_budget_bytes;
    serve_options.pipeline.degrade_on_deadline = true;
  }
  serve::SchedulerService service(serve_options);
  const util::StatusOr<serve::CacheLoadReport> load =
      service.cache().LoadFromFile(cache_path);
  if (load.ok()) {
    std::printf("warm cache: %d plans loaded, %d quarantined\n",
                load.value().entries_loaded,
                load.value().entries_quarantined);
  }

  serve::SessionPoolOptions pool_options;
  pool_options.session.executor.backend = g_backend;
  if (governed) {
    pool_options.arena_budget = &session_budget;
    pool_options.max_pooled_bytes =
        std::min(pool_options.max_pooled_bytes, g_mem_budget_bytes);
  }
  serve::SessionPool pool(pool_options);
  serve::TcpServerOptions options;
  options.port = port;
  if (governed) options.governor = &root_budget;
  serve::TcpServer server(service, pool, options);
  const util::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "start: %s\n", started.ToString().c_str());
    return 1;
  }

  struct sigaction action {};
  action.sa_handler = HandleStopSignal;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);

  if (governed) {
    std::printf("resource governor: %.1f MB shared across planning and "
                "sessions\n",
                static_cast<double>(g_mem_budget_bytes) / (1024.0 * 1024.0));
  }
  std::printf("serving on port %d\n", server.port());
  std::fflush(stdout);  // scripts parse the port from this line

  // The signal handler only flips a flag; this loop turns it into a drain.
  while (!g_stop_requested && !server.draining()) {
    timespec nap{0, 100 * 1000 * 1000};
    ::nanosleep(&nap, nullptr);  // EINTR on signal re-checks the flag
  }
  std::printf("drain requested, finishing in-flight requests...\n");
  server.RequestDrain();
  server.Join();

  const util::Status saved = service.cache().SaveToFile(cache_path);
  if (!saved.ok()) {
    std::fprintf(stderr, "cache save failed: %s\n", saved.ToString().c_str());
    return 1;
  }
  const serve::TcpServerStats stats = server.stats();
  const serve::SessionPoolStats pool_stats = pool.stats();
  const serve::ServiceStats service_stats = service.stats();
  std::printf("drained: %llu requests served (%llu ok, %llu error), "
              "%llu admission sheds, %llu pool sheds; cache persisted to %s\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.replies_ok),
              static_cast<unsigned long long>(stats.replies_error),
              static_cast<unsigned long long>(stats.admission_sheds),
              static_cast<unsigned long long>(pool_stats.sheds),
              cache_path.c_str());
  std::printf("pool: %llu activation blocks, %.1f KB (%llu sessions "
              "built)\n",
              static_cast<unsigned long long>(pool_stats.blocks),
              static_cast<double>(pool_stats.block_bytes) / 1024.0,
              static_cast<unsigned long long>(pool_stats.creations));
  if (governed) {
    std::printf("governor: root peak %.1f/%.1f MB, %llu denials "
                "(planning peak %.1f MB, sessions peak %.1f MB)\n",
                static_cast<double>(root_budget.peak_bytes()) /
                    (1024.0 * 1024.0),
                static_cast<double>(root_budget.limit_bytes()) /
                    (1024.0 * 1024.0),
                static_cast<unsigned long long>(root_budget.denials() +
                                                planning_budget.denials() +
                                                session_budget.denials()),
                static_cast<double>(planning_budget.peak_bytes()) /
                    (1024.0 * 1024.0),
                static_cast<double>(session_budget.peak_bytes()) /
                    (1024.0 * 1024.0));
    std::printf("governor: %llu plannings shed at admission, %llu plans "
                "degraded on memory, %llu cancelled, %llu plan cancels on "
                "the wire\n",
                static_cast<unsigned long long>(
                    service_stats.admission_sheds),
                static_cast<unsigned long long>(
                    service_stats.degraded_on_memory),
                static_cast<unsigned long long>(service_stats.cancelled),
                static_cast<unsigned long long>(stats.plan_cancels));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool warm_only = false;
  bool serve_mode = false;
  int serve_port = 0;
  std::string cache_path = "/tmp/serenity_serve.cache";
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--warm-only") == 0) {
      warm_only = true;
    } else if (std::strcmp(argv[a], "--serve") == 0 && a + 1 < argc) {
      serve_mode = true;
      serve_port = std::atoi(argv[++a]);
    } else if (std::strncmp(argv[a], "--mem-budget=", 13) == 0) {
      if (!ParseByteCount(argv[a] + 13, &g_mem_budget_bytes)) {
        std::fprintf(stderr,
                     "bad %s (want a positive byte count, e.g. 64m)\n",
                     argv[a]);
        return 1;
      }
    } else if (std::strncmp(argv[a], "--backend=", 10) == 0) {
      const std::optional<runtime::Backend> parsed =
          runtime::ParseBackend(argv[a] + 10);
      if (!parsed.has_value()) {
        std::fprintf(stderr,
                     "unknown %s (want reference|blocked|avx2|auto)\n",
                     argv[a]);
        return 1;
      }
      g_backend = *parsed;
    } else {
      cache_path = argv[a];
    }
  }
  std::printf("kernel backend: %s (resolved: %s)\n",
              runtime::ToString(g_backend),
              runtime::ToString(runtime::ResolveBackend(g_backend)));
  if (serve_mode) return RunServer(serve_port, cache_path);
  if (warm_only) return RunWarmOnly(cache_path);

  std::size_t distinct = 0;
  const std::vector<graph::Graph> requests = BuildRequests(&distinct);

  std::printf("serving %zu requests (%zu distinct graphs) with 2 workers\n",
              requests.size(), distinct);
  serve::ServeOptions options;
  options.num_workers = 2;
  {
    serve::SchedulerService service(options);
    std::vector<const graph::Graph*> batch;
    for (const graph::Graph& g : requests) batch.push_back(&g);

    util::Stopwatch clock;
    const std::vector<serve::ServeResult> results =
        service.ScheduleBatch(batch);
    const double seconds = clock.ElapsedSeconds();

    for (std::size_t i = 0; i < results.size(); ++i) {
      const serve::ServeResult& r = results[i];
      if (r.plan == nullptr) {
        std::fprintf(stderr, "request %zu failed: %s\n", i,
                     r.status.ToString().c_str());
        return 1;
      }
      std::printf("  %-28s %-10s peak %8.1f KB  arena %8.1f KB  "
                  "(hash %.16s)\n",
                  batch[i]->name().c_str(), PathOf(r),
                  static_cast<double>(r.plan->result.peak_bytes) / 1024.0,
                  static_cast<double>(r.plan->plan.arena.arena_bytes) /
                      1024.0,
                  r.hash.ToHex().c_str());
    }
    std::printf("batch served in %.3f s\n", seconds);
    PrintStats(service);

    const util::Status saved = service.cache().SaveToFile(cache_path);
    if (!saved.ok()) {
      std::fprintf(stderr, "cache save failed: %s\n",
                   saved.ToString().c_str());
      return 1;
    }
    std::printf("cache persisted to %s\n\n", cache_path.c_str());
  }

  // Warm restart: a brand-new service process loads the persisted cache and
  // answers every request without planning anything.
  std::printf("restarting with the persisted cache...\n");
  serve::SchedulerService restarted(options);
  const util::StatusOr<serve::CacheLoadReport> load =
      restarted.cache().LoadFromFile(cache_path);
  if (!load.ok()) {
    std::fprintf(stderr, "cache load failed: %s\n",
                 load.status().ToString().c_str());
    return 1;
  }
  std::printf("  loaded %d plans (%d quarantined)\n",
              load.value().entries_loaded,
              load.value().entries_quarantined);

  util::Stopwatch warm_clock;
  std::vector<serve::ServeResult> warm;
  for (std::size_t i = 0; i < distinct; ++i) {
    serve::ServeResult r = restarted.Schedule(requests[i]);
    if (r.plan == nullptr || !r.cache_hit) {
      std::fprintf(stderr, "warm restart missed on request %zu\n", i);
      return 1;
    }
    warm.push_back(std::move(r));
  }
  std::printf("  %zu requests served warm in %.4f s (0 planned)\n", distinct,
              warm_clock.ElapsedSeconds());
  PrintStats(restarted);

  // The loop closed: warm plan -> per-session arena -> real numbers. Each
  // session executes with zero per-inference heap allocation; the canary
  // measurement certifies the inference really peaks at the planned arena.
  std::printf("\nrunning inference through the warm plans:\n");
  for (std::size_t i = 0; i < distinct; ++i) {
    serve::InferenceSessionOptions session_options;
    session_options.executor.measure_touched_peak = true;
    session_options.executor.backend = g_backend;
    util::StatusOr<serve::InferenceSession> session =
        serve::InferenceSession::Create(warm[i].plan, session_options);
    if (!session.ok()) {
      std::fprintf(stderr, "session open failed: %s\n",
                   session.status().ToString().c_str());
      return 1;
    }
    const std::vector<runtime::Tensor> inputs =
        serenity::testing::RandomInputsFor(
            session.value().graph(), 7000 + static_cast<std::uint64_t>(i));
    util::Stopwatch infer_clock;
    session.value().Run(inputs);
    const bool certified = session.value().executor().touched_peak_bytes() ==
                           session.value().arena_bytes();
    std::printf("  %-28s planned %8.1f KB  touched %8.1f KB  %-8s "
                "(%.4f s/infer)\n",
                requests[i].name().c_str(),
                static_cast<double>(session.value().arena_bytes()) / 1024.0,
                static_cast<double>(
                    session.value().executor().touched_peak_bytes()) /
                    1024.0,
                certified ? "certified" : "DIVERGED",
                infer_clock.ElapsedSeconds());
    if (!certified) return 1;
  }
  return 0;
}
