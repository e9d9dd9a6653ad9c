// Serving runtime: admission control, dynamic batching, worker-pool
// execution and metrics. The load-bearing property is the last test:
// multi-worker, dynamically-batched serving is bit-identical to calling
// the single-threaded executor on the same inputs.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "runtime/serving_engine.h"
#include "workloads/dataset.h"

namespace msh {
namespace {

detail::PendingRequest make_pending(u64 id, Tensor images) {
  detail::PendingRequest request;
  request.id = id;
  request.rows = images.shape()[0];
  request.images = std::move(images);
  request.submit_us = monotonic_now_us();
  request.state = std::make_shared<detail::ResponseState>();
  return request;
}

Tensor tiny_images(i64 rows, u64 seed) {
  Rng rng(seed);
  return Tensor::randn(Shape{rows, 3, 12, 12}, rng);
}

TEST(RequestQueue, FifoAndBackpressure) {
  RequestQueue queue(2);
  EXPECT_TRUE(queue.try_push(make_pending(1, tiny_images(1, 1))));
  EXPECT_TRUE(queue.try_push(make_pending(2, tiny_images(1, 2))));
  EXPECT_EQ(queue.depth(), 2);
  // Full: reject, never block.
  auto overflow = make_pending(3, tiny_images(1, 3));
  EXPECT_FALSE(queue.try_push(std::move(overflow)));
  EXPECT_NE(overflow.state, nullptr);  // rejected request left intact

  auto a = queue.pop(0.0);
  auto b = queue.pop(0.0);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->id, 1u);  // FIFO
  EXPECT_EQ(b->id, 2u);
  EXPECT_FALSE(queue.pop(0.0));  // empty: timeout
}

TEST(RequestQueue, CloseDrainsThenReturnsEmpty) {
  RequestQueue queue(4);
  EXPECT_TRUE(queue.try_push(make_pending(1, tiny_images(1, 1))));
  queue.close();
  EXPECT_FALSE(queue.try_push(make_pending(2, tiny_images(1, 2))));
  // Accepted work remains poppable after close...
  auto drained = queue.pop(1e6);
  ASSERT_TRUE(drained);
  EXPECT_EQ(drained->id, 1u);
  // ...then pop returns immediately (no timeout wait) once drained.
  const Stopwatch watch;
  EXPECT_FALSE(queue.pop(5e6));
  EXPECT_LT(watch.elapsed_us(), 1e6);
}

/// Spins until `queue` has `count` consumers blocked in pop().
void await_idle_consumers(const RequestQueue& queue, i64 count) {
  while (queue.idle_consumers() < count) std::this_thread::yield();
}

TEST(RequestQueue, FollowerPopReturnsAtOnceWhilePeerIdle) {
  RequestQueue queue(4);
  std::thread peer([&] { EXPECT_FALSE(queue.pop(5e6)); });
  await_idle_consumers(queue, 1);
  // Empty queue, idle peer: a follower would go to the peer anyway.
  const Stopwatch watch;
  EXPECT_FALSE(queue.pop_follower(5e6));
  EXPECT_LT(watch.elapsed_us(), 1e6);
  queue.close();
  peer.join();
}

TEST(RequestQueue, FollowerPopWaitsWithoutIdlePeer) {
  RequestQueue queue(4);
  ASSERT_EQ(queue.idle_consumers(), 0);
  const Stopwatch watch;
  EXPECT_FALSE(queue.pop_follower(5e4));
  EXPECT_GE(watch.elapsed_us(), 5e4);
  // A queued request is taken whether or not a peer is idle.
  ASSERT_TRUE(queue.try_push(make_pending(1, tiny_images(1, 1))));
  auto follower = queue.pop_follower(5e4);
  ASSERT_TRUE(follower);
  EXPECT_EQ(follower->id, 1u);
}

// +inf means "wait until something arrives or the queue closes"; an
// unsaturated ceil(inf) cast to i64 used to turn it into an instant
// timeout.
TEST(RequestQueue, InfinitePopBlocksUntilClose) {
  RequestQueue queue(4);
  std::atomic<bool> returned{false};
  std::thread consumer([&] {
    EXPECT_FALSE(queue.pop(std::numeric_limits<f64>::infinity()));
    returned.store(true);
  });
  while (queue.idle_consumers() == 0 && !returned.load())
    std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(returned.load());
  queue.close();
  consumer.join();
  EXPECT_TRUE(returned.load());
}

TEST(DynamicBatcher, FlushesPartialBatchOnDeadline) {
  RequestQueue queue(16);
  for (u64 i = 1; i <= 3; ++i)
    ASSERT_TRUE(queue.try_push(make_pending(i, tiny_images(1, i))));
  DynamicBatcher batcher(queue,
                         {.max_batch_rows = 8, .max_wait_us = 20000.0});
  auto batch = batcher.next(1e6);
  ASSERT_TRUE(batch);
  // Deadline flush: only 3 of the 8 allowed rows ever arrived.
  EXPECT_EQ(batch->rows, 3);
  ASSERT_EQ(batch->requests.size(), 3u);
  EXPECT_EQ(batch->requests[0].id, 1u);  // arrival order preserved
  EXPECT_EQ(batch->requests[2].id, 3u);
  EXPECT_EQ(batch->images.shape(), Shape({3, 3, 12, 12}));
  // No other consumer exists, so the batch waited out max_wait_us.
  EXPECT_EQ(batch->close_reason, BatchClose::kWaitExpired);
}

TEST(DynamicBatcher, ClosesFullBatchWithoutWaitingOutDeadline) {
  RequestQueue queue(16);
  for (u64 i = 1; i <= 5; ++i)
    ASSERT_TRUE(queue.try_push(make_pending(i, tiny_images(1, i))));
  DynamicBatcher batcher(queue, {.max_batch_rows = 4, .max_wait_us = 5e6});
  const Stopwatch watch;
  auto batch = batcher.next(1e6);
  ASSERT_TRUE(batch);
  EXPECT_EQ(batch->rows, 4);
  EXPECT_LT(watch.elapsed_us(), 4e6);  // did not sit out the 5s deadline
  EXPECT_EQ(queue.depth(), 1);
  EXPECT_EQ(batch->close_reason, BatchClose::kFull);
}

TEST(DynamicBatcher, ClosesAtOnceOnClosedDrainedQueue) {
  RequestQueue queue(16);
  ASSERT_TRUE(queue.try_push(make_pending(1, tiny_images(1, 1))));
  queue.close();
  DynamicBatcher batcher(queue, {.max_batch_rows = 4, .max_wait_us = 5e6});
  const Stopwatch watch;
  auto batch = batcher.next(1e6);
  ASSERT_TRUE(batch);
  EXPECT_EQ(batch->rows, 1);
  EXPECT_EQ(batch->close_reason, BatchClose::kDrained);
  EXPECT_LT(watch.elapsed_us(), 1e6);
}

detail::PendingRequest make_classed(u64 id, Priority priority,
                                    f64 deadline_abs_us = 0.0) {
  auto request = make_pending(id, tiny_images(1, id));
  request.priority = priority;
  request.deadline_us = deadline_abs_us;
  return request;
}

TEST(RequestQueue, StrictPriorityAcrossClasses) {
  RequestQueue queue(8);
  ASSERT_EQ(queue.push(make_classed(1, Priority::kBestEffort)),
            PushResult::kOk);
  ASSERT_EQ(queue.push(make_classed(2, Priority::kBatch)), PushResult::kOk);
  ASSERT_EQ(queue.push(make_classed(3, Priority::kInteractive)),
            PushResult::kOk);
  EXPECT_EQ(queue.depth(Priority::kBestEffort), 1);
  // Dequeue order ignores arrival order across classes.
  EXPECT_EQ(queue.pop(0.0)->id, 3u);
  EXPECT_EQ(queue.pop(0.0)->id, 2u);
  EXPECT_EQ(queue.pop(0.0)->id, 1u);
}

TEST(RequestQueue, EdfWithinClassFifoBehindDeadlinedPeers) {
  const f64 now = monotonic_now_us();
  RequestQueue queue(8);
  // Same class: two no-deadline requests bracketing two deadlined ones,
  // pushed with the later deadline first.
  ASSERT_TRUE(queue.try_push(make_classed(1, Priority::kBatch)));
  ASSERT_TRUE(queue.try_push(make_classed(2, Priority::kBatch, now + 5e6)));
  ASSERT_TRUE(queue.try_push(make_classed(3, Priority::kBatch, now + 1e6)));
  ASSERT_TRUE(queue.try_push(make_classed(4, Priority::kBatch)));
  // EDF: earliest deadline first; no-deadline requests queue FIFO behind
  // every deadlined peer of their class.
  EXPECT_EQ(queue.pop(0.0)->id, 3u);
  EXPECT_EQ(queue.pop(0.0)->id, 2u);
  EXPECT_EQ(queue.pop(0.0)->id, 1u);
  EXPECT_EQ(queue.pop(0.0)->id, 4u);
}

TEST(RequestQueue, PerClassBudgetShedsWithoutTouchingOtherClasses) {
  RequestQueueOptions options;
  options.capacity = 3;
  options.class_budget[static_cast<size_t>(Priority::kBestEffort)] = 1;
  RequestQueue queue(options);
  ASSERT_EQ(queue.push(make_classed(1, Priority::kBestEffort)),
            PushResult::kOk);
  // Budget exhausted: the class sheds while the queue still has room...
  auto over = make_classed(2, Priority::kBestEffort);
  EXPECT_EQ(queue.push(std::move(over)), PushResult::kOverClassBudget);
  EXPECT_NE(over.state, nullptr);  // left intact for the caller to resolve
  // ...and other classes are unaffected by the best-effort budget.
  ASSERT_EQ(queue.push(make_classed(3, Priority::kInteractive)),
            PushResult::kOk);
  ASSERT_EQ(queue.push(make_classed(4, Priority::kBatch)), PushResult::kOk);
  EXPECT_EQ(queue.push(make_classed(5, Priority::kInteractive)),
            PushResult::kFull);  // global capacity, not a budget
  queue.close();
  EXPECT_EQ(queue.push(make_classed(6, Priority::kInteractive)),
            PushResult::kClosed);
}

/// Engine-equivalent shed policy: consume (resolve kTimedOut) requests
/// whose deadline has passed at pickup; zero deadline = no deadline.
bool shed_expired(detail::PendingRequest& request, f64 now_us) {
  if (request.deadline_us <= 0.0 || now_us < request.deadline_us)
    return false;
  InferenceResponse response;
  response.status = RequestStatus::kTimedOut;
  detail::resolve(request, std::move(response));
  return true;
}

TEST(DynamicBatcher, ShedsFollowerExpiredAtBatchCloseInstant) {
  RequestQueue queue(8);
  ASSERT_TRUE(queue.try_push(make_classed(1, Priority::kInteractive)));
  // Deadline == push instant: already unmeetable the moment the batcher
  // picks it up (the boundary case — expiry lands exactly at/under the
  // batch-close instant, so `now >= deadline` must count as expired).
  // Lower class, so it is picked up as a follower mid-batch-formation.
  ASSERT_TRUE(queue.try_push(
      make_classed(2, Priority::kBatch, monotonic_now_us())));
  ASSERT_TRUE(queue.try_push(make_classed(3, Priority::kInteractive)));
  DynamicBatcher batcher(queue, {.max_batch_rows = 3, .max_wait_us = 5000.0},
                         shed_expired);
  auto batch = batcher.next(1e6);
  ASSERT_TRUE(batch);
  // The expired follower was resolved by the shed policy, not batched;
  // the batch closes with the live requests only.
  EXPECT_EQ(batch->rows, 2);
  ASSERT_EQ(batch->requests.size(), 2u);
  EXPECT_EQ(batch->requests[0].id, 1u);
  EXPECT_EQ(batch->requests[1].id, 3u);
  EXPECT_EQ(queue.depth(), 0);
}

TEST(DynamicBatcher, ShedFirstPickupYieldsNulloptNotEmptyBatch) {
  RequestQueue queue(8);
  const f64 past = monotonic_now_us();
  ASSERT_TRUE(queue.try_push(make_classed(1, Priority::kBatch, past)));
  ASSERT_TRUE(queue.try_push(make_classed(2, Priority::kBatch, past)));
  DynamicBatcher batcher(queue, {.max_batch_rows = 4, .max_wait_us = 1000.0},
                         shed_expired);
  // Shed pickups never form an empty batch: the round sheds every
  // expired request it meets and, with nothing live left, yields nullopt.
  EXPECT_FALSE(batcher.next(20000.0));
  EXPECT_EQ(queue.depth(), 0);
}

TEST(DynamicBatcher, ShedFirstPickupKeepsPickingForALiveRequest) {
  RequestQueue queue(8);
  const f64 past = monotonic_now_us();
  ASSERT_TRUE(queue.try_push(make_classed(1, Priority::kBatch, past)));
  ASSERT_TRUE(queue.try_push(make_classed(2, Priority::kBatch, past)));
  ASSERT_TRUE(queue.try_push(make_classed(3, Priority::kBatch)));
  queue.close();
  DynamicBatcher batcher(queue, {.max_batch_rows = 1, .max_wait_us = 1000.0},
                         shed_expired);
  // A closed queue with live work behind shed requests is not drained:
  // the round must hand back the live request, not nullopt.
  auto batch = batcher.next(20000.0);
  ASSERT_TRUE(batch);
  ASSERT_EQ(batch->requests.size(), 1u);
  EXPECT_EQ(batch->requests[0].id, 3u);
  EXPECT_EQ(queue.depth(), 0);
}

TEST(DynamicBatcher, ZeroDeadlineRequestsAreNeverShed) {
  RequestQueue queue(8);
  ASSERT_TRUE(queue.try_push(make_classed(1, Priority::kBestEffort, 0.0)));
  ASSERT_TRUE(queue.try_push(make_classed(2, Priority::kBestEffort, 0.0)));
  DynamicBatcher batcher(queue, {.max_batch_rows = 2, .max_wait_us = 5000.0},
                         shed_expired);
  auto batch = batcher.next(1e6);
  ASSERT_TRUE(batch);
  // deadline 0 means "no deadline": immune to expiry shedding no matter
  // how long the requests sat queued.
  EXPECT_EQ(batch->rows, 2);
}

TEST(DynamicBatcher, MixedPriorityBatchPreservesFifoWithinClass) {
  RequestQueue queue(8);
  ASSERT_TRUE(queue.try_push(make_classed(1, Priority::kBestEffort)));
  ASSERT_TRUE(queue.try_push(make_classed(2, Priority::kInteractive)));
  ASSERT_TRUE(queue.try_push(make_classed(3, Priority::kBatch)));
  ASSERT_TRUE(queue.try_push(make_classed(4, Priority::kInteractive)));
  ASSERT_TRUE(queue.try_push(make_classed(5, Priority::kBestEffort)));
  DynamicBatcher batcher(queue, {.max_batch_rows = 5, .max_wait_us = 5000.0});
  auto batch = batcher.next(1e6);
  ASSERT_TRUE(batch);
  ASSERT_EQ(batch->requests.size(), 5u);
  // Strict priority across classes, FIFO within each class.
  EXPECT_EQ(batch->requests[0].id, 2u);
  EXPECT_EQ(batch->requests[1].id, 4u);
  EXPECT_EQ(batch->requests[2].id, 3u);
  EXPECT_EQ(batch->requests[3].id, 1u);
  EXPECT_EQ(batch->requests[4].id, 5u);
}

TEST(LatencyHistogram, PercentilesAndBounds) {
  LatencyHistogram h;
  for (i64 i = 1; i <= 100; ++i) h.record(static_cast<f64>(i * 100));
  EXPECT_EQ(h.count(), 100);
  EXPECT_DOUBLE_EQ(h.max_us(), 10000.0);
  EXPECT_LE(h.percentile_us(50.0), h.percentile_us(95.0));
  EXPECT_LE(h.percentile_us(95.0), h.percentile_us(99.0));
  EXPECT_LE(h.percentile_us(99.0), h.max_us());
  // Bucketed p50 must bracket the exact median within one 1.4x bucket.
  EXPECT_GE(h.percentile_us(50.0), 5000.0 / 1.4);
  EXPECT_LE(h.percentile_us(50.0), 5000.0 * 1.4);
}

/// Shared tiny model + calibration data. The model is deliberately
/// untrained: serving correctness is about request plumbing and
/// bit-exactness, not accuracy.
class ServingEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticSpec spec;
    spec.name = "serving-task";
    spec.classes = 4;
    spec.train_per_class = 8;
    spec.test_per_class = 4;
    spec.image_size = 12;
    spec.seed = 11;
    data_ = make_synthetic_dataset(spec);

    BackboneConfig backbone;
    backbone.stem_channels = 8;
    backbone.stage_channels = {8, 16};
    backbone.blocks_per_stage = {1, 1};
    backbone.stage_strides = {1, 2};
    Rng rng(17);
    model_ = std::make_unique<RepNetModel>(
        backbone, RepNetConfig{.bottleneck_divisor = 8, .min_bottleneck = 8},
        4, rng);
  }

  TrainTestSplit data_;
  std::unique_ptr<RepNetModel> model_;
};

TEST_F(ServingEngineTest, SingleWorkerServesFifo) {
  ServingEngineOptions options;
  options.workers = 1;
  options.queue_capacity = 16;
  options.batcher = {.max_batch_rows = 1, .max_wait_us = 0.0};
  options.autostart = false;
  ServingEngine engine(*model_, data_.train, options);

  std::vector<ResponseFuture> futures;
  for (i64 i = 0; i < 6; ++i)
    futures.push_back(engine.submit(data_.test.batch_images(i, 1)));
  engine.start();

  for (size_t i = 0; i < futures.size(); ++i) {
    const InferenceResponse response = futures[i].get();
    EXPECT_EQ(response.status, RequestStatus::kOk);
    EXPECT_EQ(response.worker, 0);
    EXPECT_EQ(response.batch_rows, 1);
    EXPECT_EQ(response.logits.shape(), Shape({1, 4}));
    // FIFO: when request i has resolved, every earlier request has too.
    for (size_t j = 0; j < i; ++j) EXPECT_TRUE(futures[j].poll());
  }
  engine.shutdown();
  const MetricsSnapshot snapshot = engine.metrics().snapshot();
  EXPECT_EQ(snapshot.completed_requests, 6);
  EXPECT_EQ(snapshot.completed_rows, 6);
  EXPECT_EQ(snapshot.rejected_requests, 0);
}

TEST_F(ServingEngineTest, RejectsWhenQueueFullAndOnLateSubmit) {
  ServingEngineOptions options;
  options.workers = 1;
  options.queue_capacity = 2;
  options.autostart = false;  // staged backlog: nothing drains the queue
  ServingEngine engine(*model_, data_.train, options);

  ResponseFuture a = engine.submit(data_.test.batch_images(0, 1));
  ResponseFuture b = engine.submit(data_.test.batch_images(1, 1));
  ResponseFuture c = engine.submit(data_.test.batch_images(2, 1));
  EXPECT_FALSE(a.poll());
  EXPECT_FALSE(b.poll());
  ASSERT_TRUE(c.poll());  // rejected immediately, no blocking
  const InferenceResponse rejected = c.get();
  EXPECT_EQ(rejected.status, RequestStatus::kRejected);
  EXPECT_EQ(rejected.error, "request queue full");

  // Shutdown without ever starting: the staged backlog must still
  // resolve (as rejected), not leak hung futures.
  engine.shutdown();
  EXPECT_EQ(a.get().status, RequestStatus::kRejected);
  EXPECT_EQ(b.get().status, RequestStatus::kRejected);

  const InferenceResponse late =
      engine.submit(data_.test.batch_images(0, 1)).get();
  EXPECT_EQ(late.status, RequestStatus::kRejected);
  EXPECT_EQ(late.error, "engine is shut down");
  EXPECT_EQ(engine.metrics().snapshot().rejected_requests, 4);
}

TEST_F(ServingEngineTest, ShutdownDrainsInFlightRequests) {
  ServingEngineOptions options;
  options.workers = 2;
  options.queue_capacity = 32;
  options.batcher = {.max_batch_rows = 4, .max_wait_us = 500.0};
  ServingEngine engine(*model_, data_.train, options);

  std::vector<ResponseFuture> futures;
  for (i64 i = 0; i < 10; ++i)
    futures.push_back(engine.submit(data_.test.batch_images(i, 1)));
  engine.shutdown();  // accepted requests must complete, not vanish
  for (auto& future : futures) {
    const InferenceResponse response = future.get();
    EXPECT_EQ(response.status, RequestStatus::kOk);
    EXPECT_EQ(response.logits.shape(), Shape({1, 4}));
  }
  EXPECT_EQ(engine.metrics().snapshot().completed_requests, 10);
  EXPECT_FALSE(engine.running());
}

TEST_F(ServingEngineTest, MultiWorkerBatchedBitIdenticalToSequential) {
  // Reference: the plain single-threaded executor.
  PimRepNetExecutor reference(*model_, data_.train);

  ServingEngineOptions options;
  options.workers = 4;
  options.queue_capacity = 64;
  options.batcher = {.max_batch_rows = 4, .max_wait_us = 2000.0};
  ServingEngine engine(*model_, data_.train, options);

  // Mixed request sizes so coalescing forms genuinely different
  // hardware batches than the reference calls.
  std::vector<Tensor> inputs;
  std::vector<ResponseFuture> futures;
  for (i64 i = 0; i < 12; ++i) {
    const i64 rows = 1 + i % 2;
    inputs.push_back(data_.test.batch_images(i, rows));
    futures.push_back(engine.submit(inputs.back()));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    const InferenceResponse response = futures[i].get();
    ASSERT_EQ(response.status, RequestStatus::kOk) << response.error;
    const Tensor expected = reference.forward(inputs[i]);
    ASSERT_EQ(response.logits.shape(), expected.shape());
    // Bit-identical: replication changes nothing about the math, and
    // every hardware operator is per-sample (batch-composition
    // invariant), so worker count and coalescing cannot perturb logits.
    EXPECT_EQ(max_abs_diff(response.logits, expected), 0.0f)
        << "request " << i;
  }
  engine.shutdown();

  const MetricsSnapshot snapshot = engine.metrics().snapshot();
  EXPECT_EQ(snapshot.completed_requests, 12);
  EXPECT_EQ(snapshot.completed_rows, 18);
  const std::string json = ServingMetrics::to_json(snapshot);
  EXPECT_NE(json.find("\"throughput\""), std::string::npos);
  EXPECT_NE(json.find("\"p99_us\""), std::string::npos);
  EXPECT_NE(json.find("\"rows_histogram\""), std::string::npos);
}

TEST_F(ServingEngineTest, SubmitValidatesShapeUpFront) {
  ServingEngineOptions options;
  options.workers = 1;
  options.autostart = false;
  ServingEngine engine(*model_, data_.train, options);

  Rng rng(23);
  ResponseFuture bad = engine.submit(Tensor::randn(Shape{1, 3, 8, 8}, rng));
  ASSERT_TRUE(bad.poll());  // resolved at submit, no worker involved
  const InferenceResponse response = bad.get();
  EXPECT_EQ(response.status, RequestStatus::kRejected);
  EXPECT_NE(response.error.find("image shape mismatch"), std::string::npos)
      << response.error;
  EXPECT_NE(response.error.find("[1, 3, 8, 8]"), std::string::npos)
      << response.error;
  EXPECT_EQ(engine.metrics().snapshot().rejected_requests, 1);
  EXPECT_EQ(engine.queue_depth(), 0);  // never admitted
  engine.shutdown();
}

TEST_F(ServingEngineTest, CrashedReplicaQuarantinedHealedAndRetried) {
  PimRepNetExecutor reference(*model_, data_.train);

  ServingEngineOptions options;
  options.workers = 1;
  options.queue_capacity = 8;
  options.batcher = {.max_batch_rows = 1, .max_wait_us = 0.0};
  options.autostart = false;
  options.max_retries = 2;
  ServingEngine engine(*model_, data_.train, options);

  const Tensor images = data_.test.batch_images(0, 1);
  ResponseFuture future = engine.submit(images);
  engine.inject_worker_fault(0, WorkerFault::kCrashNextBatch);
  engine.start();

  const InferenceResponse response = future.get();
  EXPECT_EQ(response.status, RequestStatus::kOk);
  EXPECT_EQ(response.retries, 1);  // one crash survived
  // The healed replica redeployed from the golden model: logits are
  // bit-identical to a fresh executor.
  EXPECT_EQ(max_abs_diff(response.logits, reference.forward(images)), 0.0f);
  engine.shutdown();

  const MetricsSnapshot snapshot = engine.metrics().snapshot();
  EXPECT_EQ(snapshot.completed_requests, 1);
  EXPECT_EQ(snapshot.failed_requests, 0);
  EXPECT_EQ(snapshot.retries, 1);
  EXPECT_EQ(snapshot.heals, 1);
  EXPECT_EQ(engine.healthy_workers(), 1);
}

TEST_F(ServingEngineTest, RetryBudgetExhaustionFails) {
  ServingEngineOptions options;
  options.workers = 1;
  options.batcher = {.max_batch_rows = 1, .max_wait_us = 0.0};
  options.autostart = false;
  options.max_retries = 0;  // any replica failure is final
  ServingEngine engine(*model_, data_.train, options);

  ResponseFuture future = engine.submit(data_.test.batch_images(0, 1));
  engine.inject_worker_fault(0, WorkerFault::kCrashNextBatch);
  engine.start();

  const InferenceResponse response = future.get();
  EXPECT_EQ(response.status, RequestStatus::kFailed);
  EXPECT_NE(response.error.find("retry budget exhausted"), std::string::npos)
      << response.error;
  engine.shutdown();

  const MetricsSnapshot snapshot = engine.metrics().snapshot();
  EXPECT_EQ(snapshot.failed_requests, 1);
  EXPECT_EQ(snapshot.retries, 0);
  EXPECT_EQ(snapshot.heals, 1);  // quarantine/redeploy still ran
  EXPECT_EQ(engine.healthy_workers(), 1);
}

TEST_F(ServingEngineTest, DeadlineExpiryResolvesTimedOut) {
  ServingEngineOptions options;
  options.workers = 1;
  options.batcher = {.max_batch_rows = 1, .max_wait_us = 0.0};
  options.autostart = false;
  options.request_deadline_us = 1.0;  // expires while staged
  ServingEngine engine(*model_, data_.train, options);

  ResponseFuture future = engine.submit(data_.test.batch_images(0, 1));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  engine.start();

  const InferenceResponse response = future.get();
  EXPECT_EQ(response.status, RequestStatus::kTimedOut);
  EXPECT_NE(response.error.find("deadline expired"), std::string::npos);
  EXPECT_TRUE(response.logits.empty());
  engine.shutdown();

  const MetricsSnapshot snapshot = engine.metrics().snapshot();
  EXPECT_EQ(snapshot.timed_out_requests, 1);
  EXPECT_EQ(snapshot.completed_requests, 0);
  EXPECT_EQ(snapshot.failed_requests, 0);
}

TEST_F(ServingEngineTest, UncorrectableScrubTriggersRedeploy) {
  PimRepNetExecutor reference(*model_, data_.train);

  ServingEngineOptions options;
  options.workers = 1;
  options.batcher = {.max_batch_rows = 1, .max_wait_us = 0.0};
  options.autostart = false;
  options.executor.ecc = EccMode::kSecDed;
  options.scrub_every_batches = 1;  // scrub after every served batch
  ServingEngine engine(*model_, data_.train, options);

  // Heavy corruption: beyond SEC-DED's single-error regime, so the
  // post-batch scrub must raise the uncorrectable signal and redeploy.
  const Tensor first = data_.test.batch_images(0, 1);
  const Tensor second = data_.test.batch_images(1, 1);
  ResponseFuture a = engine.submit(first);
  ResponseFuture b = engine.submit(second);
  engine.inject_worker_fault(0, WorkerFault::kCorruptNvm,
                             MtjFaultModel::symmetric(5e-3), /*seed=*/77);
  engine.start();

  EXPECT_EQ(a.get().status, RequestStatus::kOk);  // served corrupt, then
  const InferenceResponse healed = b.get();       // healed before this one
  EXPECT_EQ(healed.status, RequestStatus::kOk);
  EXPECT_EQ(max_abs_diff(healed.logits, reference.forward(second)), 0.0f);
  engine.shutdown();

  const MetricsSnapshot snapshot = engine.metrics().snapshot();
  EXPECT_GE(snapshot.scrubs, 1);
  EXPECT_GT(snapshot.ecc_detected_uncorrectable, 0);
  EXPECT_EQ(snapshot.heals, 1);
  EXPECT_EQ(engine.healthy_workers(), 1);
  const std::string json = ServingMetrics::to_json(snapshot);
  EXPECT_NE(json.find("\"resilience\""), std::string::npos);
  EXPECT_NE(json.find("\"timed_out\""), std::string::npos);
}

TEST_F(ServingEngineTest, AdmissionRateLimitShedsAtSubmit) {
  ServingEngineOptions options;
  options.workers = 1;
  options.autostart = false;  // staged: admission is a submit-side gate
  options.admission.per_class[static_cast<size_t>(Priority::kInteractive)] =
      {.rate_per_s = 0.001, .burst = 1.0};  // one token, ~no refill
  ServingEngine engine(*model_, data_.train, options);

  ResponseFuture first = engine.submit(data_.test.batch_images(0, 1));
  EXPECT_FALSE(first.poll());  // rode the bucket's one token: queued
  ResponseFuture second = engine.submit(data_.test.batch_images(1, 1));
  ASSERT_TRUE(second.poll());  // shed immediately, no queue slot spent
  const InferenceResponse shed = second.get();
  EXPECT_EQ(shed.status, RequestStatus::kShed);
  EXPECT_NE(shed.error.find("admission rate limit exceeded"),
            std::string::npos)
      << shed.error;
  EXPECT_NE(shed.error.find("interactive"), std::string::npos);
  EXPECT_EQ(engine.queue_depth(), 1);
  engine.shutdown();

  const MetricsSnapshot snapshot = engine.metrics().snapshot();
  EXPECT_EQ(snapshot.shed_requests, 1);
  const auto& cls =
      snapshot.classes[static_cast<size_t>(Priority::kInteractive)];
  EXPECT_EQ(cls.shed, 1);
  EXPECT_EQ(cls.rejected, 1);  // `first`, drained by the never-run engine
}

TEST_F(ServingEngineTest, ClassQueueBudgetShedsBestEffortOnly) {
  ServingEngineOptions options;
  options.workers = 1;
  options.queue_capacity = 8;
  options.autostart = false;
  options.admission.per_class[static_cast<size_t>(Priority::kBestEffort)]
      .queue_budget = 1;
  ServingEngine engine(*model_, data_.train, options);

  const SubmitOptions best_effort{.priority = Priority::kBestEffort};
  ResponseFuture a =
      engine.submit(data_.test.batch_images(0, 1), best_effort);
  ResponseFuture b =
      engine.submit(data_.test.batch_images(1, 1), best_effort);
  EXPECT_FALSE(a.poll());
  ASSERT_TRUE(b.poll());
  const InferenceResponse shed = b.get();
  EXPECT_EQ(shed.status, RequestStatus::kShed);
  EXPECT_EQ(shed.priority, Priority::kBestEffort);
  EXPECT_NE(shed.error.find("class queue budget exhausted"),
            std::string::npos)
      << shed.error;
  // Interactive traffic is not constrained by the best-effort budget.
  ResponseFuture c = engine.submit(data_.test.batch_images(2, 1));
  EXPECT_FALSE(c.poll());
  engine.shutdown();
  EXPECT_EQ(engine.metrics().snapshot().shed_requests, 1);
}

TEST_F(ServingEngineTest, UnmeetableDeadlineShedsWithAttribution) {
  ServingEngineOptions options;
  options.workers = 1;
  options.queue_capacity = 8;
  options.batcher = {.max_batch_rows = 16, .max_wait_us = 0.0};
  ServingEngine engine(*model_, data_.train, options);

  // Warm the engine's per-row service-time estimate with one request.
  const InferenceResponse warm =
      engine.submit(data_.test.batch_images(0, 1)).get();
  ASSERT_EQ(warm.status, RequestStatus::kOk);
  const f64 service_us = warm.total_us - warm.queue_us;
  ASSERT_GT(service_us, 0.0);

  // A 20 ms deadline is far above a contended worker's pickup delay, so
  // the request is not expired at pickup. Its rows need 8x that deadline
  // at the warmed per-row estimate (at most service_us, the dispatch part
  // of the warm request), so it is provably unmeetable and the shed path
  // — not the timeout path — fires. Shed at pickup, it never runs; the
  // default admission and class budgets count requests, not rows.
  constexpr f64 kDeadlineUs = 20000.0;
  const i64 rows =
      static_cast<i64>(std::ceil(8.0 * kDeadlineUs / service_us));
  const Shape image = data_.test.batch_images(0, 1).shape();
  const SubmitOptions doomed{.priority = Priority::kBestEffort,
                             .deadline_us = kDeadlineUs};
  const InferenceResponse shed =
      engine
          .submit(Tensor(Shape{rows, image[1], image[2], image[3]}), doomed)
          .get();
  EXPECT_EQ(shed.status, RequestStatus::kShed);
  EXPECT_NE(shed.error.find("deadline unmeetable"), std::string::npos)
      << shed.error;
  EXPECT_NE(shed.error.find("estimated service"), std::string::npos);
  EXPECT_TRUE(shed.logits.empty());
  engine.shutdown();

  const MetricsSnapshot snapshot = engine.metrics().snapshot();
  EXPECT_EQ(snapshot.shed_requests, 1);
  EXPECT_EQ(
      snapshot.classes[static_cast<size_t>(Priority::kBestEffort)].shed, 1);
  EXPECT_EQ(snapshot.completed_requests, 1);
}

TEST_F(ServingEngineTest, BreakerOpensOnFailureProbesAndRecloses) {
  ServingEngineOptions options;
  options.workers = 1;
  options.batcher = {.max_batch_rows = 1, .max_wait_us = 0.0};
  options.autostart = false;
  options.max_retries = 3;
  options.breaker.failure_threshold = 1;  // any failure trips it
  options.breaker.cooldown_us = 5000.0;
  ServingEngine engine(*model_, data_.train, options);

  ResponseFuture future = engine.submit(data_.test.batch_images(0, 1));
  engine.inject_worker_fault(0, WorkerFault::kCrashNextBatch);
  engine.start();

  // Crash -> breaker opens -> cooldown -> half-open probe batch serves
  // the retried request -> breaker closes.
  const InferenceResponse response = future.get();
  EXPECT_EQ(response.status, RequestStatus::kOk);
  EXPECT_EQ(response.retries, 1);
  engine.shutdown();

  const MetricsSnapshot snapshot = engine.metrics().snapshot();
  EXPECT_EQ(snapshot.breaker_opens, 1);
  EXPECT_EQ(snapshot.breaker_half_opens, 1);
  EXPECT_EQ(snapshot.breaker_closes, 1);
  EXPECT_EQ(snapshot.heals, 1);  // the self-heal path still ran
  EXPECT_EQ(engine.healthy_workers(), 1);
  const std::string json = ServingMetrics::to_json(snapshot);
  EXPECT_NE(json.find("\"breaker\""), std::string::npos);
}

TEST_F(ServingEngineTest, BreakerDisabledKeepsLegacyBehavior) {
  ServingEngineOptions options;
  options.workers = 1;
  options.batcher = {.max_batch_rows = 1, .max_wait_us = 0.0};
  options.autostart = false;
  options.max_retries = 2;
  options.breaker.enabled = false;
  ServingEngine engine(*model_, data_.train, options);

  ResponseFuture future = engine.submit(data_.test.batch_images(0, 1));
  engine.inject_worker_fault(0, WorkerFault::kCrashNextBatch);
  engine.start();
  EXPECT_EQ(future.get().status, RequestStatus::kOk);
  engine.shutdown();

  const MetricsSnapshot snapshot = engine.metrics().snapshot();
  EXPECT_EQ(snapshot.breaker_opens, 0);
  EXPECT_EQ(engine.healthy_workers(), 1);
}

TEST_F(ServingEngineTest, SwapModelRollsEveryWorkerWithoutFailures) {
  ServingEngineOptions options;
  options.workers = 2;
  options.queue_capacity = 32;
  options.batcher = {.max_batch_rows = 2, .max_wait_us = 500.0};
  ServingEngine engine(*model_, data_.train, options);

  // The image to roll out: a fresh deployment of the trained model,
  // exported in the on-flash format.
  auto image = std::make_shared<DeploymentImage>(
      PimRepNetExecutor(*model_, data_.train, options.executor)
          .export_image());

  std::vector<ResponseFuture> futures;
  for (i64 i = 0; i < 4; ++i)
    futures.push_back(engine.submit(data_.test.batch_images(i, 1)));
  ASSERT_TRUE(engine.swap_model(image));
  for (i64 i = 4; i < 8; ++i)
    futures.push_back(engine.submit(data_.test.batch_images(i, 1)));
  for (auto& future : futures)
    EXPECT_EQ(future.get().status, RequestStatus::kOk);

  // Post-swap outputs are bit-identical to a standalone deploy of the
  // same image.
  const Tensor probe = data_.test.batch_images(0, 2);
  const Tensor swapped = engine.submit(probe).get().logits;
  auto reference = PimRepNetExecutor::deploy_from_image(
      *model_, options.executor,
      PimRepNetExecutor(*model_, data_.train, options.executor).input_amax(),
      image);
  EXPECT_EQ(max_abs_diff(swapped, reference->forward(probe)), 0.0f);
  engine.shutdown();

  const MetricsSnapshot snapshot = engine.metrics().snapshot();
  EXPECT_EQ(snapshot.swaps_attempted, 1);
  EXPECT_EQ(snapshot.swaps_completed, 1);
  EXPECT_EQ(snapshot.swap_workers_swapped, 2);
  EXPECT_EQ(snapshot.swap_rollbacks, 0);
  EXPECT_EQ(snapshot.failed_requests, 0);
  // The image is now the replicas' deployment provenance (heal-after-swap
  // redeploys the swapped weights, not the original model's).
  EXPECT_EQ(engine.replica(0).source_image(), image);
  EXPECT_EQ(engine.replica(1).source_image(), image);
}

TEST_F(ServingEngineTest, SwapVerifyFailureRollsBackAndKeepsServing) {
  PimRepNetExecutor reference(*model_, data_.train);

  ServingEngineOptions options;
  options.workers = 2;
  options.queue_capacity = 16;
  options.batcher = {.max_batch_rows = 1, .max_wait_us = 0.0};
  ServingEngine engine(*model_, data_.train, options);

  auto image = std::make_shared<DeploymentImage>(
      PimRepNetExecutor(*model_, data_.train, options.executor)
          .export_image());

  // Corrupt the candidate replicas after deployment (failed array
  // programming). The (ber, seed) pair is chosen so worker 0's injection
  // lands harmlessly (candidate verifies, worker promoted) while worker
  // 1's corrupts a live cell: the deploy->verify gate must catch it,
  // abort the roll, and roll the already-promoted worker 0 back.
  SwapOptions faulty;
  faulty.deploy_fault_ber = 1e-4;
  faulty.deploy_fault_seed = 50;
  EXPECT_FALSE(engine.swap_model(image, faulty));

  // The engine kept its old (intact) replicas and serves on, bit-exact.
  const Tensor probe = data_.test.batch_images(0, 1);
  const InferenceResponse response = engine.submit(probe).get();
  ASSERT_EQ(response.status, RequestStatus::kOk);
  EXPECT_EQ(max_abs_diff(response.logits, reference.forward(probe)), 0.0f);
  engine.shutdown();

  const MetricsSnapshot snapshot = engine.metrics().snapshot();
  EXPECT_EQ(snapshot.swaps_attempted, 1);
  EXPECT_EQ(snapshot.swaps_failed, 1);
  EXPECT_EQ(snapshot.swaps_completed, 0);
  // Worker 0 was promoted before worker 1's verify failed, then rolled
  // back; nobody is left on the rejected image.
  EXPECT_EQ(snapshot.swap_workers_swapped, 1);
  EXPECT_EQ(snapshot.swap_rollbacks, 1);
  EXPECT_EQ(snapshot.failed_requests, 0);
  EXPECT_EQ(engine.replica(0).source_image(), nullptr);
  EXPECT_EQ(engine.replica(1).source_image(), nullptr);
  EXPECT_EQ(engine.healthy_workers(), 2);
}

TEST_F(ServingEngineTest, SwapRefusedWhenNotRunning) {
  ServingEngineOptions options;
  options.workers = 1;
  options.autostart = false;
  ServingEngine engine(*model_, data_.train, options);
  auto image = std::make_shared<DeploymentImage>(
      PimRepNetExecutor(*model_, data_.train, options.executor)
          .export_image());
  EXPECT_FALSE(engine.swap_model(image));  // no workers to hand off to
  const MetricsSnapshot snapshot = engine.metrics().snapshot();
  EXPECT_EQ(snapshot.swaps_attempted, 1);
  EXPECT_EQ(snapshot.swaps_failed, 1);
}

TEST_F(ServingEngineTest, SubmitAfterShutdownIsWellDefined) {
  ServingEngineOptions options;
  options.workers = 1;
  ServingEngine engine(*model_, data_.train, options);
  EXPECT_EQ(engine.submit(data_.test.batch_images(0, 1)).get().status,
            RequestStatus::kOk);
  engine.shutdown();

  // Contract: submitting to a shut-down engine is safe and well-defined —
  // a valid future that is already resolved kRejected, never UB or a hang.
  for (int i = 0; i < 2; ++i) {
    ResponseFuture late = engine.submit(data_.test.batch_images(0, 1));
    ASSERT_TRUE(late.valid());
    ASSERT_TRUE(late.poll());
    const InferenceResponse response = late.get();
    EXPECT_EQ(response.status, RequestStatus::kRejected);
    EXPECT_EQ(response.error, "engine is shut down");
  }
  EXPECT_EQ(engine.metrics().snapshot().rejected_requests, 2);
}

TEST_F(ServingEngineTest, PowerFailKillsQueuedRequestsAndRejectsDuringOutage) {
  ServingEngineOptions options;
  options.workers = 1;
  options.queue_capacity = 16;
  options.batcher = {.max_batch_rows = 1, .max_wait_us = 0.0};
  options.autostart = false;  // backlog stays queued: deterministic victims
  ServingEngine engine(*model_, data_.train, options);

  std::vector<ResponseFuture> futures;
  for (i64 i = 0; i < 4; ++i)
    futures.push_back(engine.submit(data_.test.batch_images(i, 1)));

  const auto report = engine.power_fail({.outage_s = 2.0, .seed = 7});
  EXPECT_EQ(report.requests_killed, 4);
  EXPECT_GT(report.sram_bytes_wiped, 0);
  EXPECT_TRUE(engine.powered_off());
  for (auto& future : futures) {
    const InferenceResponse response = future.get();
    EXPECT_EQ(response.status, RequestStatus::kPowerLoss);
    EXPECT_NE(response.error.find("power interruption"), std::string::npos);
  }
  // Submitting during the outage rejects immediately, with attribution.
  const InferenceResponse dark =
      engine.submit(data_.test.batch_images(0, 1)).get();
  EXPECT_EQ(dark.status, RequestStatus::kRejected);
  EXPECT_NE(dark.error.find("power interruption"), std::string::npos);
  // A second blackout while already dark is a no-op, not double damage.
  EXPECT_EQ(engine.power_fail().requests_killed, 0);

  const MetricsSnapshot snapshot = engine.metrics().snapshot();
  EXPECT_EQ(snapshot.recovery.outages, 1);
  EXPECT_EQ(snapshot.recovery.power_loss_requests, 4);
  EXPECT_EQ(snapshot.classes[0].power_loss, 4);
}

TEST_F(ServingEngineTest, PowerFailResolvesInFlightRequestsAsPowerLoss) {
  ServingEngineOptions options;
  options.workers = 2;
  options.queue_capacity = 32;
  options.batcher = {.max_batch_rows = 1, .max_wait_us = 0.0};
  ServingEngine engine(*model_, data_.train, options);

  // Race the outage against live traffic: each request must resolve as
  // exactly kOk (finished before the lights went out) or kPowerLoss —
  // never hang, never any other status.
  std::vector<ResponseFuture> futures;
  for (i64 i = 0; i < 16; ++i)
    futures.push_back(engine.submit(data_.test.batch_images(i % 8, 1)));
  engine.power_fail({.outage_s = 1.0, .seed = 5});

  i64 ok = 0, killed = 0;
  for (auto& future : futures) {
    const InferenceResponse response = future.get();
    if (response.status == RequestStatus::kOk)
      ++ok;
    else if (response.status == RequestStatus::kPowerLoss)
      ++killed;
    else
      ADD_FAILURE() << "unexpected status " << to_string(response.status);
  }
  EXPECT_EQ(ok + killed, 16);
  EXPECT_EQ(engine.metrics().snapshot().recovery.power_loss_requests, killed);
}

TEST_F(ServingEngineTest, RestartRecoversAndServesBitExact) {
  PimRepNetExecutor reference(*model_, data_.train);
  ServingEngineOptions options;
  options.workers = 2;
  options.queue_capacity = 16;
  options.batcher = {.max_batch_rows = 1, .max_wait_us = 0.0};
  ServingEngine engine(*model_, data_.train, options);
  ASSERT_EQ(engine.submit(data_.test.batch_images(0, 1)).get().status,
            RequestStatus::kOk);

  engine.power_fail({.outage_s = 10.0, .seed = 3});
  const auto report = engine.restart();
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_FALSE(engine.powered_off());
  EXPECT_TRUE(engine.running());
  EXPECT_EQ(report.workers_warm + report.workers_cold, 2);
  EXPECT_GT(report.rto_us, 0.0);
  EXPECT_GT(report.sram_cells_restored, 0);

  // Post-recovery serving is bit-identical to an undamaged executor:
  // the outage left no silent corruption behind.
  const Tensor probe = data_.test.batch_images(1, 2);
  const InferenceResponse response = engine.submit(probe).get();
  ASSERT_EQ(response.status, RequestStatus::kOk);
  EXPECT_EQ(max_abs_diff(response.logits, reference.forward(probe)), 0.0f);
  engine.shutdown();

  const MetricsSnapshot snapshot = engine.metrics().snapshot();
  EXPECT_EQ(snapshot.recovery.outages, 1);
  EXPECT_EQ(snapshot.recovery.recoveries, 1);
  EXPECT_EQ(snapshot.recovery.workers_warm + snapshot.recovery.workers_cold,
            2);
  EXPECT_GT(snapshot.recovery.last_rto_us, 0.0);
  EXPECT_EQ(snapshot.failed_requests, 0);
}

TEST_F(ServingEngineTest, RestartOntoDurableImageRollsGenerationsBack) {
  ServingEngineOptions options;
  options.workers = 1;
  options.queue_capacity = 16;
  options.batcher = {.max_batch_rows = 1, .max_wait_us = 0.0};
  ServingEngine engine(*model_, data_.train, options);

  // The durable last-good image (what DurableState would have loaded).
  auto image = std::make_shared<DeploymentImage>(
      PimRepNetExecutor(*model_, data_.train, options.executor)
          .export_image());
  image->set_generation(1);

  engine.power_fail({.outage_s = 1.0, .seed = 9});
  const auto report = engine.restart({.image = image});
  ASSERT_TRUE(report.ok) << report.error;
  // Recovery pinned the replicas to the image: it is now their
  // deployment provenance, exactly like a completed swap.
  const Tensor probe = data_.test.batch_images(2, 1);
  const InferenceResponse response = engine.submit(probe).get();
  ASSERT_EQ(response.status, RequestStatus::kOk);
  auto deployed = PimRepNetExecutor::deploy_from_image(
      *model_, options.executor,
      PimRepNetExecutor(*model_, data_.train, options.executor).input_amax(),
      image);
  EXPECT_EQ(max_abs_diff(response.logits, deployed->forward(probe)), 0.0f);
}

TEST_F(ServingEngineTest, RestartRefusedUnlessPoweredOff) {
  ServingEngineOptions options;
  options.workers = 1;
  ServingEngine engine(*model_, data_.train, options);
  const auto report = engine.restart();
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("power_fail"), std::string::npos);
  // The healthy engine was not disturbed.
  EXPECT_TRUE(engine.running());
  EXPECT_EQ(engine.submit(data_.test.batch_images(0, 1)).get().status,
            RequestStatus::kOk);
  EXPECT_EQ(engine.metrics().snapshot().recovery.recoveries, 0);
}

bool same_bytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(f32) * static_cast<size_t>(a.numel())) == 0;
}

TEST_F(ServingEngineTest, ShadowOracleReadsLiveCellsNotGolden) {
  PimRepNetExecutor golden(*model_, data_.train);

  ServingEngineOptions options;
  options.workers = 1;
  options.queue_capacity = 16;
  options.batcher = {.max_batch_rows = 1, .max_wait_us = 0.0};
  options.autostart = false;
  options.self_heal = false;  // keep the corrupt cells in service
  options.shadow_every_batches = 1;
  ServingEngine engine(*model_, data_.train, options);

  std::vector<ResponseFuture> futures;
  for (i64 i = 0; i < 6; ++i)
    futures.push_back(engine.submit(data_.test.batch_images(i, 1)));
  engine.inject_worker_fault(0, WorkerFault::kCorruptNvm,
                             MtjFaultModel::symmetric(5e-3), /*seed=*/77);
  engine.start();

  i64 diverged = 0;
  for (i64 i = 0; i < 6; ++i) {
    const InferenceResponse response = futures[static_cast<size_t>(i)].get();
    ASSERT_EQ(response.status, RequestStatus::kOk);
    if (!same_bytes(response.logits,
                    golden.forward(data_.test.batch_images(i, 1))))
      ++diverged;
  }
  engine.shutdown();  // joins the workers: every shadow check has run

  // The faults landed (a golden re-run would disagree), yet every modeled
  // re-run matched what the raw kernels served from the same cells.
  EXPECT_GT(diverged, 0);
  const MetricsSnapshot snapshot = engine.metrics().snapshot();
  EXPECT_EQ(snapshot.shadow_checks, snapshot.batches);
  EXPECT_EQ(snapshot.shadow_checks, 6);
  EXPECT_EQ(snapshot.shadow_mismatches, 0);
  EXPECT_EQ(snapshot.heals, 0);
  EXPECT_NE(ServingMetrics::to_json(snapshot).find("\"shadow_checks\":6"),
            std::string::npos);
}

TEST_F(ServingEngineTest, RawDefaultBitExactToModeledAcrossSwapAndHeal) {
  ServingEngineOptions raw_options;
  raw_options.workers = 1;
  raw_options.batcher = {.max_batch_rows = 2, .max_wait_us = 0.0};
  ServingEngineOptions modeled_options = raw_options;
  modeled_options.executor.backend = KernelBackend::kModeled;
  ASSERT_EQ(raw_options.executor.backend, KernelBackend::kRaw);
  ServingEngine raw(*model_, data_.train, raw_options);
  ServingEngine modeled(*model_, data_.train, modeled_options);

  const Tensor probe = data_.test.batch_images(0, 3);
  const auto expect_same = [&](const char* stage) {
    const InferenceResponse a = raw.submit(probe).get();
    const InferenceResponse b = modeled.submit(probe).get();
    ASSERT_EQ(a.status, RequestStatus::kOk) << stage;
    ASSERT_EQ(b.status, RequestStatus::kOk) << stage;
    EXPECT_TRUE(same_bytes(a.logits, b.logits)) << stage;
  };
  expect_same("initial deployment");

  // Swap both engines onto an image of differently initialized weights,
  // so the post-swap logits really come from new cells.
  Rng rng(23);
  BackboneConfig backbone;
  backbone.stem_channels = 8;
  backbone.stage_channels = {8, 16};
  backbone.blocks_per_stage = {1, 1};
  backbone.stage_strides = {1, 2};
  RepNetModel other(backbone,
                    RepNetConfig{.bottleneck_divisor = 8, .min_bottleneck = 8},
                    4, rng);
  auto image = std::make_shared<DeploymentImage>(
      PimRepNetExecutor(other, data_.train).export_image());
  const Tensor before = raw.submit(probe).get().logits;
  ASSERT_TRUE(raw.swap_model(image));
  ASSERT_TRUE(modeled.swap_model(image));
  EXPECT_FALSE(same_bytes(raw.submit(probe).get().logits, before));
  expect_same("after swap_model");

  // A crash heals each replica by redeploying from the swapped image.
  raw.inject_worker_fault(0, WorkerFault::kCrashNextBatch);
  modeled.inject_worker_fault(0, WorkerFault::kCrashNextBatch);
  expect_same("after heal");
  raw.shutdown();
  modeled.shutdown();
  EXPECT_EQ(raw.metrics().snapshot().heals, 1);
  EXPECT_EQ(modeled.metrics().snapshot().heals, 1);
  EXPECT_EQ(raw.replica(0).source_image(), image);
}

TEST_F(ServingEngineTest, PowerFailDamageIsSeedDeterministic) {
  ServingEngineOptions options;
  options.workers = 2;
  options.autostart = false;
  ServingEngine a(*model_, data_.train, options);
  ServingEngine b(*model_, data_.train, options);
  const ServingEngine::PowerFailureSpec spec{.outage_s = 20.0, .seed = 123};
  const auto ra = a.power_fail(spec);
  const auto rb = b.power_fail(spec);
  EXPECT_EQ(ra.sram_bytes_wiped, rb.sram_bytes_wiped);
  EXPECT_EQ(ra.mram_bits_drifted, rb.mram_bits_drifted);
  // And recovery from identical damage makes identical repairs.
  const auto rra = a.restart();
  const auto rrb = b.restart();
  ASSERT_TRUE(rra.ok) << rra.error;
  ASSERT_TRUE(rrb.ok) << rrb.error;
  EXPECT_EQ(rra.sram_cells_restored, rrb.sram_cells_restored);
  EXPECT_EQ(rra.ecc_corrected, rrb.ecc_corrected);
  EXPECT_EQ(rra.ecc_refetched, rrb.ecc_refetched);
  EXPECT_EQ(rra.workers_warm, rrb.workers_warm);
  EXPECT_EQ(rra.workers_cold, rrb.workers_cold);
}

i64 close_count(const MetricsSnapshot& snapshot, BatchClose reason) {
  return snapshot.batch_close_reasons[static_cast<size_t>(reason)];
}

TEST_F(ServingEngineTest, LoneRequestDispatchesAtOnceWhilePeerIdle) {
  ServingEngineOptions options;
  options.workers = 2;
  options.batcher = {.max_batch_rows = 8, .max_wait_us = 5e6};
  // One long idle wait per worker: both stay counted idle throughout.
  options.idle_poll_us = 6e7;
  ServingEngine engine(*model_, data_.train, options);
  while (engine.idle_workers() < 2) std::this_thread::yield();

  const InferenceResponse response =
      engine.submit(data_.test.batch_images(0, 1)).get();
  EXPECT_EQ(response.status, RequestStatus::kOk);
  // The peer was idle, so no follower wait: well under max_wait_us.
  EXPECT_LT(response.queue_us, 1e6);
  engine.shutdown();
  const MetricsSnapshot snapshot = engine.metrics().snapshot();
  EXPECT_EQ(snapshot.batches, 1);
  EXPECT_EQ(close_count(snapshot, BatchClose::kIdlePeer), 1);
  EXPECT_NE(engine.metrics_json().find(
                "\"close_reasons\":{\"full\":0,\"wait_expired\":0,"
                "\"idle_peer\":1,\"drained\":0}"),
            std::string::npos);
}

TEST_F(ServingEngineTest, LoneRequestWaitsOutMaxWaitWithoutPeer) {
  ServingEngineOptions options;
  options.workers = 1;
  options.batcher = {.max_batch_rows = 8, .max_wait_us = 5e4};
  ServingEngine engine(*model_, data_.train, options);

  const InferenceResponse response =
      engine.submit(data_.test.batch_images(0, 1)).get();
  EXPECT_EQ(response.status, RequestStatus::kOk);
  // No peer to hand followers to: coalescing keeps its full window.
  EXPECT_GE(response.queue_us, 5e4);
  engine.shutdown();
  const MetricsSnapshot snapshot = engine.metrics().snapshot();
  EXPECT_EQ(snapshot.batches, 1);
  EXPECT_EQ(close_count(snapshot, BatchClose::kWaitExpired), 1);
}

// A request shed at pickup must not end a worker's shutdown drain while
// accepted work is still queued behind it.
TEST_F(ServingEngineTest, ShedPickupDoesNotEndShutdownDrain) {
  ServingEngineOptions options;
  options.workers = 1;
  options.batcher = {.max_batch_rows = 1, .max_wait_us = 0.0};
  options.executor.backend = KernelBackend::kModeled;
  options.autostart = false;
  ServingEngine engine(*model_, data_.train, options);

  // The slow interactive batch runs first; by the time it finishes the
  // queue is closed, and the expired request heads the batch class.
  ResponseFuture big = engine.submit(data_.train.batch_images(0, 32));
  const SubmitOptions batch_class{.priority = Priority::kBatch};
  ResponseFuture doomed = engine.submit(
      data_.test.batch_images(1, 1),
      {.priority = Priority::kBatch, .deadline_us = 1.0});
  std::vector<ResponseFuture> plain;
  for (i64 i = 0; i < 3; ++i)
    plain.push_back(engine.submit(data_.test.batch_images(2 + i, 1),
                                  batch_class));
  engine.start();
  engine.shutdown();

  EXPECT_EQ(big.get().status, RequestStatus::kOk);
  EXPECT_EQ(doomed.get().status, RequestStatus::kTimedOut);
  for (auto& future : plain)
    EXPECT_EQ(future.get().status, RequestStatus::kOk);
  const MetricsSnapshot snapshot = engine.metrics().snapshot();
  EXPECT_EQ(snapshot.rejected_requests, 0);
  EXPECT_EQ(snapshot.completed_requests, 4);
}

}  // namespace
}  // namespace msh
