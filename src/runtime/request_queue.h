// Thread-safe bounded multi-class queue of pending requests — the
// admission point of the serving engine. Overload policy is
// reject-with-signal, never block-forever: push fails immediately when
// the global capacity or a per-class budget is exhausted, so a caller
// under backpressure gets a signal it can act on (shed load, retry with
// jitter) instead of an unbounded stall.
//
// Dequeue order is strict priority across classes (interactive before
// batch before best-effort) and earliest-deadline-first within a class;
// requests without a deadline keep FIFO order behind every deadlined
// peer of their class, and equal deadlines tie-break FIFO. Under
// overload this serves the traffic that can still meet its deadline and
// lets best-effort work go stale (and be shed) first.
#pragma once

#include <array>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>

#include "runtime/request.h"

namespace msh {

struct RequestQueueOptions {
  i64 capacity = 64;  ///< global bound across all classes (requests)
  /// Per-class queue budgets: at most this many queued requests of one
  /// class, so a best-effort burst cannot crowd interactive traffic out
  /// of the shared capacity. 0 = bounded only by the global capacity.
  std::array<i64, kPriorityClasses> class_budget = {0, 0, 0};
};

enum class PushResult {
  kOk,
  kFull,             ///< global capacity exhausted (backpressure)
  kOverClassBudget,  ///< the request's class budget is exhausted (shed)
  kClosed,           ///< queue closed: engine shut down
};

class RequestQueue {
 public:
  explicit RequestQueue(RequestQueueOptions options);
  /// Convenience: global capacity only, no per-class budgets.
  explicit RequestQueue(i64 capacity)
      : RequestQueue(RequestQueueOptions{capacity, {0, 0, 0}}) {}

  /// Enqueues if there is room and the queue is open. On any non-kOk
  /// result `request` is left untouched.
  PushResult push(detail::PendingRequest&& request);

  /// Legacy boolean form of push().
  bool try_push(detail::PendingRequest&& request) {
    return push(std::move(request)) == PushResult::kOk;
  }

  /// Re-enqueues an already-admitted request at the head of its class
  /// (retry after a replica failure). Bypasses capacity, class budgets
  /// and the closed flag: admission happened at the original push, and
  /// workers drain the queue after close(), so a retry during shutdown
  /// is still served (or deadline-expired), never lost.
  void push_front(detail::PendingRequest&& request);

  /// Dequeues the next request — highest priority class first, earliest
  /// deadline within the class — blocking up to `timeout_us`. Returns
  /// nullopt on timeout, or immediately once the queue is closed *and*
  /// drained (closing still lets consumers take what was accepted).
  std::optional<detail::PendingRequest> pop(f64 timeout_us);

  /// pop() for a batch that is already open: returns nullopt at once
  /// when the queue is empty while another consumer is blocked in pop()
  /// for a first request — that idle peer would serve any follower the
  /// moment it arrived, so waiting for one only adds latency. Otherwise
  /// waits exactly as pop() does.
  std::optional<detail::PendingRequest> pop_follower(f64 timeout_us);

  /// Stops admission; waiting consumers drain the remainder and then see
  /// nullopt without waiting out their timeout.
  void close();

  /// Re-arms a closed queue for admission — the power-loss restart path
  /// (ServingEngine::restart), after the outage drained and resolved
  /// every queued request. Requires the queue to be empty: reopening over
  /// stranded requests would resurrect futures their clients already saw
  /// resolve.
  void reopen();

  bool closed() const;
  i64 depth() const;
  i64 depth(Priority priority) const;
  i64 capacity() const { return options_.capacity; }
  /// Consumers blocked in pop() on an empty queue right now.
  i64 idle_consumers() const;

 private:
  detail::PendingRequest take_next_locked();
  std::optional<detail::PendingRequest> wait_and_take(
      std::unique_lock<std::mutex>& lock, f64 timeout_us);

  const RequestQueueOptions options_;
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::array<std::deque<detail::PendingRequest>, kPriorityClasses> items_;
  i64 total_ = 0;
  i64 idle_consumers_ = 0;  ///< blocked in pop() for a first request
  bool closed_ = false;
};

}  // namespace msh
