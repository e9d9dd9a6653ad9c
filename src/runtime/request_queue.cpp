#include "runtime/request_queue.h"

#include <chrono>
#include <limits>

#include "common/stopwatch.h"

namespace msh {

RequestQueue::RequestQueue(RequestQueueOptions options) : options_(options) {
  MSH_REQUIRE(options_.capacity > 0);
  for (const i64 budget : options_.class_budget) MSH_REQUIRE(budget >= 0);
}

PushResult RequestQueue::push(detail::PendingRequest&& request) {
  const auto cls = static_cast<size_t>(request.priority);
  MSH_REQUIRE(cls < static_cast<size_t>(kPriorityClasses));
  {
    const std::lock_guard<std::mutex> guard(mutex_);
    if (closed_) return PushResult::kClosed;
    if (total_ >= options_.capacity) return PushResult::kFull;
    const i64 budget = options_.class_budget[cls];
    if (budget > 0 && static_cast<i64>(items_[cls].size()) >= budget)
      return PushResult::kOverClassBudget;
    items_[cls].push_back(std::move(request));
    ++total_;
  }
  ready_.notify_one();
  return PushResult::kOk;
}

void RequestQueue::push_front(detail::PendingRequest&& request) {
  const auto cls = static_cast<size_t>(request.priority);
  MSH_REQUIRE(cls < static_cast<size_t>(kPriorityClasses));
  {
    const std::lock_guard<std::mutex> guard(mutex_);
    items_[cls].push_front(std::move(request));
    ++total_;
  }
  ready_.notify_one();
}

detail::PendingRequest RequestQueue::take_next_locked() {
  for (auto& queue : items_) {
    if (queue.empty()) continue;
    // EDF within the class: earliest absolute deadline wins; requests
    // without a deadline (0 = +inf) and equal deadlines keep FIFO order
    // (strict < on the scan, so the first seen wins ties).
    size_t best = 0;
    f64 best_deadline = queue.front().deadline_us;
    if (best_deadline <= 0.0) best_deadline = std::numeric_limits<f64>::max();
    for (size_t i = 1; i < queue.size(); ++i) {
      f64 deadline = queue[i].deadline_us;
      if (deadline <= 0.0) deadline = std::numeric_limits<f64>::max();
      if (deadline < best_deadline) {
        best = i;
        best_deadline = deadline;
      }
    }
    detail::PendingRequest request = std::move(queue[best]);
    queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(best));
    --total_;
    return request;
  }
  MSH_ENSURE(false && "take_next_locked on an empty queue");
  return {};
}

std::optional<detail::PendingRequest> RequestQueue::wait_and_take(
    std::unique_lock<std::mutex>& lock, f64 timeout_us) {
  // Round the budget *up*: truncation would turn a fractional-microsecond
  // timeout into 0, silently degrading every sub-us pop into a
  // busy-spinning immediate timeout. pop(0.0) stays non-blocking.
  ready_.wait_for(lock, microseconds_ceil(timeout_us),
                  [&] { return total_ > 0 || closed_; });
  if (total_ == 0) return std::nullopt;
  return take_next_locked();
}

std::optional<detail::PendingRequest> RequestQueue::pop(f64 timeout_us) {
  std::unique_lock<std::mutex> lock(mutex_);
  ++idle_consumers_;
  auto request = wait_and_take(lock, timeout_us);
  --idle_consumers_;
  return request;
}

std::optional<detail::PendingRequest> RequestQueue::pop_follower(
    f64 timeout_us) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (total_ == 0 && idle_consumers_ > 0) return std::nullopt;
  return wait_and_take(lock, timeout_us);
}

void RequestQueue::close() {
  {
    const std::lock_guard<std::mutex> guard(mutex_);
    closed_ = true;
  }
  ready_.notify_all();
}

void RequestQueue::reopen() {
  const std::lock_guard<std::mutex> guard(mutex_);
  MSH_REQUIRE(total_ == 0 && "reopen() over undrained requests");
  closed_ = false;
}

bool RequestQueue::closed() const {
  const std::lock_guard<std::mutex> guard(mutex_);
  return closed_;
}

i64 RequestQueue::idle_consumers() const {
  const std::lock_guard<std::mutex> guard(mutex_);
  return idle_consumers_;
}

i64 RequestQueue::depth() const {
  const std::lock_guard<std::mutex> guard(mutex_);
  return total_;
}

i64 RequestQueue::depth(Priority priority) const {
  const std::lock_guard<std::mutex> guard(mutex_);
  return static_cast<i64>(items_[static_cast<size_t>(priority)].size());
}

}  // namespace msh
