#include "serve/inference_session.h"

#include <exception>
#include <new>
#include <utility>

#include "util/logging.h"

namespace serenity::serve {

InferenceSession::InferenceSession(
    std::shared_ptr<const CachedPlan> plan, InferenceSessionOptions options,
    std::shared_ptr<const runtime::GraphWeights> weights,
    runtime::ArenaBlock* block)
    : plan_(std::move(plan)) {
  SERENITY_CHECK(plan_ != nullptr)
      << "cannot open an inference session without a plan";
  SERENITY_CHECK(plan_->result.status.ok());
  executor_ = std::make_unique<runtime::ArenaExecutor>(
      plan_->result.scheduled_graph, plan_->plan, options.executor,
      std::move(weights), block);
}

InferenceSession InferenceSession::Open(SchedulerService& service,
                                        const graph::Graph& graph,
                                        InferenceSessionOptions options) {
  ServeResult result = service.Schedule(graph);
  SERENITY_CHECK(result.plan != nullptr)
      << "planning '" << graph.name() << "' failed: "
      << result.status.ToString();
  return InferenceSession(std::move(result.plan), options);
}

util::StatusOr<InferenceSession> InferenceSession::Create(
    std::shared_ptr<const CachedPlan> plan, InferenceSessionOptions options,
    std::shared_ptr<const runtime::GraphWeights> weights) {
  if (plan == nullptr) {
    return util::InvalidArgumentError(
        "cannot open an inference session without a plan");
  }
  try {
    return InferenceSession(std::move(plan), options, std::move(weights));
  } catch (const std::bad_alloc&) {
    return util::ResourceExhaustedError(
        "arena allocation failed opening the inference session");
  } catch (const std::exception& e) {
    return util::InternalError(
        std::string("opening the inference session threw: ") + e.what());
  }
}

void InferenceSession::Run(const std::vector<runtime::Tensor>& inputs) {
  executor_->Run(inputs);
}

}  // namespace serenity::serve

