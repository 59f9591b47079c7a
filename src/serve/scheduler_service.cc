#include "serve/scheduler_service.h"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <utility>

#include "graph/analysis.h"
#include "testing/fault_injection.h"
#include "util/logging.h"

namespace serenity::serve {

SchedulerService::SchedulerService(ServeOptions options)
    : options_(std::move(options)) {
  SERENITY_CHECK_GE(options_.num_workers, 1);
  workers_.reserve(static_cast<std::size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

SchedulerService::~SchedulerService() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void SchedulerService::AttachWaiter(
    const std::shared_ptr<FlightState>& state,
    const std::shared_ptr<util::CancelToken>& waiter) {
  if (waiter == nullptr) {
    std::lock_guard<std::mutex> lock(state->mu);
    state->pinned += 1;
    return;
  }
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->live += 1;
  }
  // An already-cancelled waiter runs the callback inline: its vote lands
  // immediately and may cancel the flight on the spot.
  waiter->OnCancel([state] {
    bool cancel_flight = false;
    {
      std::lock_guard<std::mutex> lock(state->mu);
      state->live -= 1;
      cancel_flight = state->live == 0 && state->pinned == 0;
    }
    if (cancel_flight) state->token.Cancel();
  });
}

Submission SchedulerService::Submit(const graph::Graph& graph,
                                    const RequestOptions& request) {
  Submission submission;
  submission.hash = graph::CanonicalGraphHash(graph);

  // Admission lower bound, computed outside the lock (O(|V|+|E|)): a graph
  // that provably cannot fit under the governor no matter how it is
  // scheduled must not cost a planning slot.
  std::int64_t floor_bytes = 0;
  if (options_.admission_floor_budget_bytes > 0) {
    floor_bytes = graph::BufferUseTable::Build(graph).PeakFloorBytes();
  }

  std::lock_guard<std::mutex> lock(mu_);
  SERENITY_CHECK(!stopping_) << "Submit after shutdown began";
  ++counters_.requests;

  // Path 2 first: attaching to an in-flight planning run also covers the
  // window where its result is not yet in the cache. (Background upgrades
  // are not in in_flight_, so requests during an upgrade fall through to
  // the cache and hit the degraded entry instead of waiting.)
  const auto flight = in_flight_.find(submission.hash);
  if (flight != in_flight_.end()) {
    ++counters_.coalesced;
    submission.coalesced = true;
    submission.future = flight->second.future;
    AttachWaiter(flight->second.state, request.cancel);
    return submission;
  }

  // Path 1: served from cache on the caller's thread.
  if (std::shared_ptr<const CachedPlan> plan =
          cache_.Lookup(submission.hash)) {
    ++counters_.cache_hits;
    submission.cache_hit = true;
    ServeResult ready_result;
    ready_result.hash = submission.hash;
    ready_result.cache_hit = true;
    ready_result.plan = std::move(plan);
    std::promise<ServeResult> ready;
    ready.set_value(std::move(ready_result));
    submission.future = ready.get_future().share();
    return submission;
  }

  // Admission shed: the graph's schedulable floor exceeds the governor's
  // cap, so no session could ever execute the plan — refuse now, before a
  // byte of planning memory is spent. kResourceExhausted carries a retry
  // hint on the wire, and the server stays healthy for graphs that fit.
  if (options_.admission_floor_budget_bytes > 0 &&
      floor_bytes > options_.admission_floor_budget_bytes) {
    ++counters_.admission_sheds;
    ++counters_.failures;
    ServeResult shed;
    shed.hash = submission.hash;
    shed.status = util::ResourceExhaustedError(
        "admission shed: every schedule of this graph peaks at >= " +
        std::to_string(floor_bytes) + " bytes, over the governor cap of " +
        std::to_string(options_.admission_floor_budget_bytes));
    std::promise<ServeResult> ready;
    ready.set_value(std::move(shed));
    submission.future = ready.get_future().share();
    return submission;
  }

  // Path 3: enqueue a planning job and register it for single-flight.
  Job job;
  job.hash = submission.hash;
  job.graph = graph;
  job.promise = std::make_shared<std::promise<ServeResult>>();
  job.request = request;
  job.submitted = Clock::now();
  job.flight = std::make_shared<FlightState>();
  AttachWaiter(job.flight, request.cancel);
  submission.future = job.promise->get_future().share();
  in_flight_.emplace(submission.hash, Flight{submission.future, job.flight});
  queue_.push_back(std::move(job));
  work_ready_.notify_one();
  return submission;
}

void SchedulerService::WorkerLoop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_ready_.wait(lock, [this] { return !queue_.empty() || stopping_; });
      if (queue_.empty()) return;  // stopping and drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    if (job.is_upgrade) {
      RunUpgradeJob(std::move(job));
    } else {
      RunRequestJob(std::move(job));
    }
  }
}

void SchedulerService::RunRequestJob(Job job) {
  ServeResult result;
  result.hash = job.hash;

  // Seconds left of the request's budget; queue wait already counts.
  const double remaining =
      job.request.deadline_seconds -
      std::chrono::duration<double>(Clock::now() - job.submitted).count();

  try {
    // Fault-injection point: a worker-thread exception must fail this one
    // request with a clean Status and leave the worker serving.
    if (testing::FaultTriggered(testing::FaultPoint::kWorkerException)) {
      throw std::runtime_error("injected worker exception");
    }
    if (remaining <= 0 && !job.request.allow_degraded) {
      result.status = util::DeadlineExceededError(
          "deadline of " + std::to_string(job.request.deadline_seconds) +
          "s expired before planning started");
    } else {
      core::PipelineOptions popts = options_.pipeline;
      popts.deadline_seconds =
          std::min(popts.deadline_seconds, std::max(remaining, 0.0));
      popts.degrade_on_deadline = job.request.allow_degraded;
      popts.memory_budget = options_.planning_budget;
      if (job.flight != nullptr) popts.cancel = &job.flight->token;
      core::PipelineResult planned = core::Pipeline(popts).Run(job.graph);
      if (planned.status.ok()) {
        // Arena planning for the cache entry is governed too: a budget
        // refusal here sheds the request rather than allocating past the
        // governor on the way into the cache.
        util::StatusOr<std::shared_ptr<const CachedPlan>> inserted =
            cache_.InsertGoverned(job.hash, std::move(planned),
                                  options_.planning_budget);
        if (inserted.ok()) {
          result.plan = std::move(inserted).value();
        } else {
          result.status = inserted.status();
        }
      } else {
        result.status = std::move(planned.status);
      }
    }
  } catch (const std::exception& e) {
    result.status =
        util::InternalError(std::string("planning threw: ") + e.what());
  } catch (...) {
    result.status = util::InternalError("planning threw a non-exception");
  }

  {
    // The cache insert above happens before the in-flight erase, so a
    // concurrent Submit always finds the plan on one path or the other.
    std::lock_guard<std::mutex> lock(mu_);
    if (result.plan != nullptr) {
      ++counters_.planned;
      if (result.plan->quality != core::PlanQuality::kExact) {
        ++counters_.degraded_plans;
        if (result.plan->result.degrade_reason ==
            core::DegradeReason::kMemory) {
          ++counters_.degraded_on_memory;
        }
        if (options_.upgrade_degraded_plans && !stopping_) {
          EnqueueUpgradeLocked(job.hash, job.graph);
        }
      }
    } else {
      ++counters_.failures;
      if (result.status.code() == util::StatusCode::kCancelled) {
        ++counters_.cancelled;
      }
    }
    in_flight_.erase(job.hash);
  }
  job.promise->set_value(std::move(result));
}

void SchedulerService::EnqueueUpgradeLocked(const graph::GraphHash& hash,
                                            const graph::Graph& graph) {
  if (!upgrading_.insert(hash).second) return;  // one upgrade per hash
  Job upgrade;
  upgrade.hash = hash;
  upgrade.graph = graph;
  upgrade.request = RequestOptions{};  // no deadline: the exact search
  upgrade.submitted = Clock::now();
  upgrade.is_upgrade = true;
  queue_.push_back(std::move(upgrade));
  work_ready_.notify_one();
}

void SchedulerService::RunUpgradeJob(Job job) {
  // One attempt: a failure (planner, governor refusal, or exception) is
  // counted and the degraded entry keeps serving.
  bool success = false;
  try {
    core::PipelineOptions popts = options_.pipeline;
    popts.deadline_seconds = std::numeric_limits<double>::infinity();
    popts.degrade_on_deadline = false;
    // Upgrades run under the same governor as foreground planning.
    popts.memory_budget = options_.planning_budget;
    core::PipelineResult planned = core::Pipeline(popts).Run(job.graph);
    if (planned.status.ok()) {  // no degradation: OK means exact
      // Replace only while the entry is still degraded (or evicted): a
      // concurrent exact plan must not be clobbered.
      const std::shared_ptr<const CachedPlan> current =
          cache_.Lookup(job.hash);
      if (current != nullptr &&
          current->quality == core::PlanQuality::kExact) {
        success = true;
      } else {
        success = cache_.InsertGoverned(job.hash, std::move(planned),
                                        options_.planning_budget)
                      .ok();
      }
    }
  } catch (...) {
    // Counted as a failure below; the worker must survive.
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (success) {
    ++counters_.upgrades;
  } else {
    ++counters_.upgrade_failures;
  }
  upgrading_.erase(job.hash);
}

ServeResult SchedulerService::Schedule(const graph::Graph& graph,
                                       const RequestOptions& request) {
  const Submission submission = Submit(graph, request);
  ServeResult result = submission.future.get();
  result.cache_hit = submission.cache_hit;
  result.coalesced = submission.coalesced;
  return result;
}

std::vector<ServeResult> SchedulerService::ScheduleBatch(
    const std::vector<const graph::Graph*>& batch,
    const RequestOptions& request) {
  std::vector<Submission> submissions;
  submissions.reserve(batch.size());
  for (const graph::Graph* graph : batch) {
    SERENITY_CHECK(graph != nullptr);
    submissions.push_back(Submit(*graph, request));
  }
  std::vector<ServeResult> results;
  results.reserve(batch.size());
  for (const Submission& submission : submissions) {
    ServeResult result = submission.future.get();
    result.cache_hit = submission.cache_hit;
    result.coalesced = submission.coalesced;
    results.push_back(std::move(result));
  }
  return results;
}

ServiceStats SchedulerService::stats() const {
  ServiceStats s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s = counters_;
  }
  s.cache = cache_.stats();
  return s;
}

}  // namespace serenity::serve
