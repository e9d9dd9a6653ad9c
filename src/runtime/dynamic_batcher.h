// Dynamic batching: coalesces queued requests into one hardware batch to
// amortize per-dispatch overhead on the PIM core. A batch closes at the
// first of:
//   - full: it holds `max_batch_rows` images;
//   - wait expired: `max_wait_us` has elapsed since its first request
//     was picked up — latency-bounded batching, the policy knob every
//     serving system exposes (cf. TF-Serving / Triton);
//   - idle peer: the queue is empty while another worker sits idle in
//     RequestQueue::pop. Any follower would be served at once by that
//     peer, so waiting for one could only add latency; `max_wait_us`
//     buys throughput only when every other worker is busy. This is the
//     serving-layer analogue of the SIMT scheduler dispatching a tile as
//     soon as a PE is free;
//   - drained: the queue was closed and is empty.
//
// The batcher is also the pre-dispatch shed point: an optional ShedPolicy
// inspects every request as it is picked up, and requests whose deadline
// is already unmeetable are resolved (kShed/kTimedOut) by the policy
// instead of burning a queue slot and PIM cycles on doomed work.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "runtime/request_queue.h"

namespace msh {

struct BatcherOptions {
  i64 max_batch_rows = 8;  ///< images per hardware dispatch
  /// Longest wait for followers after the first pickup. The batch closes
  /// sooner once the queue is empty while a peer worker is idle.
  f64 max_wait_us = 2000;
};

/// Why a batch stopped coalescing (see the header comment).
enum class BatchClose : u8 { kFull, kWaitExpired, kIdlePeer, kDrained };
inline constexpr i64 kBatchCloseReasons = 4;
const char* to_string(BatchClose reason);

/// Requests coalesced for one dispatch, plus their concatenated images.
struct MicroBatch {
  std::vector<detail::PendingRequest> requests;
  Tensor images;  ///< [sum(rows), C, H, W]
  i64 rows = 0;
  f64 formed_us = 0.0;  ///< monotonic timestamp when the batch closed
  BatchClose close_reason = BatchClose::kFull;
};

/// Returns true if the request was consumed (resolved as shed/timed-out)
/// and must not be batched. Called with the pickup timestamp.
using ShedPolicy = std::function<bool(detail::PendingRequest&, f64 now_us)>;

class DynamicBatcher {
 public:
  DynamicBatcher(RequestQueue& queue, BatcherOptions options,
                 ShedPolicy shed = {});

  /// Blocks up to `idle_timeout_us` for a first request, then coalesces
  /// followers until the batch closes (full, wait expired, idle peer or
  /// drained). A shed pickup does not end the round: the batcher keeps
  /// picking until it has a live first request or the queue is empty.
  /// Returns nullopt only when no live request was left to take (idle
  /// tick, or closed and drained). Requests are never split across
  /// batches; dequeue order (class priority, EDF within class, FIFO
  /// otherwise) is preserved inside the batch.
  std::optional<MicroBatch> next(f64 idle_timeout_us);

  const BatcherOptions& options() const { return options_; }

 private:
  RequestQueue& queue_;
  BatcherOptions options_;
  ShedPolicy shed_;
};

/// Concatenates request images along the batch dimension. All requests
/// must agree on [C, H, W].
Tensor concat_request_images(
    const std::vector<detail::PendingRequest>& requests);

/// Fills `batch.images` from `batch.requests`. A single-request batch —
/// the common case under low load, and every request once batch size 1
/// is configured — adopts the request's tensor by move (zero-copy all
/// the way to executor dispatch); multi-request batches need one gather
/// copy for dense [sum(rows), C, H, W] storage. After a move the
/// request's own tensor is empty; the engine's retry path hands it back
/// before the request re-enters the queue.
void assemble_batch_images(MicroBatch& batch);

}  // namespace msh
