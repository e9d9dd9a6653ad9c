#include "runtime/request.h"

namespace msh {

const char* to_string(RequestStatus status) {
  switch (status) {
    case RequestStatus::kPending:
      return "pending";
    case RequestStatus::kOk:
      return "ok";
    case RequestStatus::kRejected:
      return "rejected";
    case RequestStatus::kFailed:
      return "failed";
    case RequestStatus::kTimedOut:
      return "timed_out";
    case RequestStatus::kShed:
      return "shed";
    case RequestStatus::kPowerLoss:
      return "power_loss";
  }
  return "unknown";
}

const char* to_string(Priority priority) {
  switch (priority) {
    case Priority::kInteractive:
      return "interactive";
    case Priority::kBatch:
      return "batch";
    case Priority::kBestEffort:
      return "best_effort";
  }
  return "unknown";
}

bool ResponseFuture::poll() const {
  MSH_REQUIRE(state_ != nullptr);
  const std::lock_guard<std::mutex> guard(state_->mutex);
  return state_->done;
}

InferenceResponse ResponseFuture::get() const {
  MSH_REQUIRE(state_ != nullptr);
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->cv.wait(lock, [&] { return state_->done; });
  return state_->response;
}

namespace detail {

void resolve(PendingRequest& request, InferenceResponse&& response) {
  MSH_REQUIRE(request.state != nullptr);
  {
    const std::lock_guard<std::mutex> guard(request.state->mutex);
    MSH_ENSURE(!request.state->done);
    request.state->response = std::move(response);
    request.state->response.id = request.id;
    request.state->done = true;
  }
  request.state->cv.notify_all();
}

}  // namespace detail
}  // namespace msh
