#include "runtime/dynamic_batcher.h"

#include <algorithm>
#include <cstring>

#include "common/stopwatch.h"

namespace msh {

DynamicBatcher::DynamicBatcher(RequestQueue& queue, BatcherOptions options,
                               ShedPolicy shed)
    : queue_(queue), options_(options), shed_(std::move(shed)) {
  MSH_REQUIRE(options_.max_batch_rows > 0);
  MSH_REQUIRE(options_.max_wait_us >= 0);
}

Tensor concat_request_images(
    const std::vector<detail::PendingRequest>& requests) {
  MSH_REQUIRE(!requests.empty());
  const Shape& first = requests.front().images.shape();
  MSH_REQUIRE(first.rank() == 4);
  i64 rows = 0;
  for (const auto& r : requests) {
    const Shape& s = r.images.shape();
    MSH_REQUIRE(s.rank() == 4 && s[1] == first[1] && s[2] == first[2] &&
                s[3] == first[3]);
    rows += s[0];
  }
  Tensor batch(Shape{rows, first[1], first[2], first[3]});
  f32* dst = batch.data();
  for (const auto& r : requests) {
    std::memcpy(dst, r.images.data(),
                sizeof(f32) * static_cast<size_t>(r.images.numel()));
    dst += r.images.numel();
  }
  return batch;
}

void assemble_batch_images(MicroBatch& batch) {
  MSH_REQUIRE(!batch.requests.empty());
  if (batch.requests.size() == 1) {
    MSH_REQUIRE(batch.requests.front().images.shape().rank() == 4);
    batch.images = std::move(batch.requests.front().images);
    return;
  }
  batch.images = concat_request_images(batch.requests);
}

const char* to_string(BatchClose reason) {
  switch (reason) {
    case BatchClose::kFull:
      return "full";
    case BatchClose::kWaitExpired:
      return "wait_expired";
    case BatchClose::kIdlePeer:
      return "idle_peer";
    case BatchClose::kDrained:
      return "drained";
  }
  return "unknown";
}

std::optional<MicroBatch> DynamicBatcher::next(f64 idle_timeout_us) {
  auto first = queue_.pop(idle_timeout_us);
  // A shed pickup must not end the round: the caller reads nullopt on a
  // closed queue as "drained", and live work may still sit behind it.
  while (first && shed_ && shed_(*first, monotonic_now_us()))
    first = queue_.pop(0.0);
  if (!first) return std::nullopt;

  MicroBatch batch;
  batch.rows = first->rows;
  batch.requests.push_back(std::move(*first));

  // Latency-bounded, work-conserving coalescing. A single oversized
  // request (> max rows) still dispatches — requests are never split;
  // the batch may likewise overshoot by at most one request's rows.
  const f64 deadline = monotonic_now_us() + options_.max_wait_us;
  while (true) {
    if (batch.rows >= options_.max_batch_rows) {
      batch.close_reason = BatchClose::kFull;
      break;
    }
    const f64 remaining = deadline - monotonic_now_us();
    if (remaining <= 0) {
      batch.close_reason = BatchClose::kWaitExpired;
      break;
    }
    auto follower = queue_.pop_follower(remaining);
    if (!follower) {
      // pop_follower waits out its whole budget unless the queue closes
      // or a peer is idle: an early return on an open queue is the
      // idle-peer case.
      if (queue_.closed()) {
        batch.close_reason = BatchClose::kDrained;
      } else if (monotonic_now_us() < deadline) {
        batch.close_reason = BatchClose::kIdlePeer;
      } else {
        batch.close_reason = BatchClose::kWaitExpired;
      }
      break;
    }
    if (shed_ && shed_(*follower, monotonic_now_us())) continue;
    batch.rows += follower->rows;
    batch.requests.push_back(std::move(*follower));
  }

  assemble_batch_images(batch);
  batch.formed_us = monotonic_now_us();
  return batch;
}

}  // namespace msh
