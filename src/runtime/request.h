// Request/response types for the serving runtime: what a client submits
// (a batch of images plus a priority class and deadline), what it gets
// back (logits + timings + status), and the future-style handle
// connecting the two across threads.
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>

#include "common/types.h"
#include "tensor/tensor.h"

namespace msh {

enum class RequestStatus {
  kPending,   ///< still queued or executing
  kOk,        ///< logits are valid
  kRejected,  ///< backpressure: the queue was full (or the engine stopped)
  kFailed,    ///< the executor threw and the retry budget is spent
  kTimedOut,  ///< per-request deadline expired before a healthy dispatch
  kShed,      ///< overload control dropped the request before dispatch
  kPowerLoss, ///< a power interruption killed the request in flight
};

const char* to_string(RequestStatus status);

/// Priority class of a request. Under overload, load is shed from the
/// bottom of this ordering first: best-effort traffic absorbs the
/// pressure so interactive p99 stays bounded.
enum class Priority {
  kInteractive = 0,  ///< user-facing, tight deadline, served first
  kBatch = 1,        ///< background batch work
  kBestEffort = 2,   ///< speculative / free-tier; first to shed
};

inline constexpr i64 kPriorityClasses = 3;

const char* to_string(Priority priority);

/// Per-request knobs accepted by ServingEngine::submit.
struct SubmitOptions {
  Priority priority = Priority::kInteractive;
  /// Relative deadline (microseconds from submit). The engine resolves a
  /// request kShed/kTimedOut rather than dispatching it once the deadline
  /// is unmeetable. 0 = use the engine default (`request_deadline_us`);
  /// an engine default of 0 too means no deadline.
  f64 deadline_us = 0.0;
};

/// What the client submits: [B, C, H, W] images (B >= 1).
struct InferenceRequest {
  Tensor images;
};

/// What the client receives once the request resolves.
struct InferenceResponse {
  RequestStatus status = RequestStatus::kPending;
  Tensor logits;      ///< [B, classes]; empty unless status == kOk
  std::string error;  ///< set when status is kRejected/kFailed/kShed
  u64 id = 0;         ///< engine-assigned, monotonically increasing
  Priority priority = Priority::kInteractive;
  i64 worker = -1;    ///< replica index that served the request
  i64 batch_rows = 0; ///< total rows of the hardware batch it rode in
  i64 retries = 0;    ///< failed dispatches survived before resolving
  f64 queue_us = 0.0; ///< submit -> dispatch to a worker
  f64 total_us = 0.0; ///< submit -> response ready
};

namespace detail {
/// Shared slot written once by a worker and read by the client.
struct ResponseState {
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  InferenceResponse response;
};
}  // namespace detail

/// Future-style handle returned by ServingEngine::submit. poll() never
/// blocks; get() blocks until the response is ready. Handles are cheap to
/// copy (shared state) and remain valid after the engine is destroyed,
/// because shutdown resolves every accepted request first.
class ResponseFuture {
 public:
  ResponseFuture() = default;

  bool valid() const { return state_ != nullptr; }

  /// True once the response is ready; never blocks.
  bool poll() const;

  /// Blocks until ready, then returns the response (copy; get() may be
  /// called repeatedly).
  InferenceResponse get() const;

 private:
  friend class ServingEngine;
  explicit ResponseFuture(std::shared_ptr<detail::ResponseState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<detail::ResponseState> state_;
};

namespace detail {
/// A request in flight inside the engine: payload + promise side of the
/// future + the submit timestamp for latency accounting.
struct PendingRequest {
  u64 id = 0;
  Tensor images;
  i64 rows = 0;
  Priority priority = Priority::kInteractive;
  f64 submit_us = 0.0;
  f64 deadline_us = 0.0;  ///< absolute; 0 = no deadline
  i64 attempts = 0;       ///< failed dispatches so far (retry accounting)
  std::shared_ptr<ResponseState> state;
};

/// Resolves the future: fills the response and wakes waiters. Must be
/// called exactly once per accepted request.
void resolve(PendingRequest& request, InferenceResponse&& response);
}  // namespace detail

}  // namespace msh
