#include "runtime/serving_engine.h"

#include <chrono>
#include <cstring>

#include "common/logging.h"
#include "common/stopwatch.h"

namespace msh {

namespace {

RequestQueueOptions queue_options(const ServingEngineOptions& options) {
  RequestQueueOptions queue;
  queue.capacity = options.queue_capacity;
  for (i64 c = 0; c < kPriorityClasses; ++c) {
    queue.class_budget[static_cast<size_t>(c)] =
        options.admission.per_class[static_cast<size_t>(c)].queue_budget;
  }
  return queue;
}

/// One physical-medium model per worker (empty without wear tracking).
/// Per-worker seeds decorrelate pulse outcomes so the fleet does not
/// wear out in lockstep.
std::vector<std::shared_ptr<MramWearTracker>> make_wear_trackers(
    const ServingEngineOptions& options) {
  std::vector<std::shared_ptr<MramWearTracker>> trackers;
  if (!options.wear.enabled) return trackers;
  trackers.reserve(static_cast<size_t>(options.workers));
  for (i64 w = 0; w < options.workers; ++w) {
    WearOptions wear = options.wear;
    wear.seed =
        options.wear.seed + static_cast<u64>(w) * 0x9e3779b97f4a7c15ull;
    trackers.push_back(std::make_shared<MramWearTracker>(wear));
  }
  return trackers;
}

}  // namespace

ServingEngine::ServingEngine(RepNetModel& model, const Dataset& calibration,
                             ServingEngineOptions options)
    : options_(std::move(options)),
      model_(model),
      wear_trackers_(make_wear_trackers(options_)),
      replicas_(make_executor_replicas(model, calibration, options_.workers,
                                       options_.executor, wear_trackers_)),
      queue_(queue_options(options_)),
      admission_(options_.admission, monotonic_now_us()) {
  MSH_REQUIRE(options_.intra_op_threads <= 1);
  MSH_REQUIRE(options_.idle_poll_us > 0);
  MSH_REQUIRE(options_.max_retries >= 0);
  MSH_REQUIRE(options_.request_deadline_us >= 0.0);
  MSH_REQUIRE(options_.scrub_every_batches >= 0);
  MSH_REQUIRE(options_.shadow_every_batches >= 0);
  MSH_REQUIRE(options_.breaker.failure_threshold > 0);
  MSH_REQUIRE(options_.breaker.cooldown_us >= 0.0);
  input_amax_ = replicas_[0]->input_amax();
  expected_image_ = calibration.batch_images(0, 1).shape();
  states_.reserve(static_cast<size_t>(workers()));
  for (i64 i = 0; i < workers(); ++i)
    states_.push_back(std::make_unique<WorkerState>());
  log_info("serving engine: ", workers(), " worker(s), queue capacity ",
           queue_.capacity(), ", max batch ",
           options_.batcher.max_batch_rows, " rows, max wait ",
           options_.batcher.max_wait_us, " us, retry budget ",
           options_.max_retries, ", ecc ",
           ecc_mode_name(options_.executor.ecc), ", backend ",
           to_string(options_.executor.backend));
  refresh_wear_metrics();  // initial deployment already cost pulses
  if (options_.autostart) start();
}

ServingEngine::~ServingEngine() { shutdown(); }

const PimRepNetExecutor& ServingEngine::replica(i64 i) const {
  MSH_REQUIRE(i >= 0 && i < workers());
  return *replicas_[static_cast<size_t>(i)];
}

void ServingEngine::start() {
  if (shut_down_.load(std::memory_order_acquire)) return;
  if (running_.exchange(true, std::memory_order_acq_rel)) return;
  threads_.reserve(static_cast<size_t>(workers()));
  for (i64 i = 0; i < workers(); ++i)
    threads_.emplace_back([this, i] { worker_loop(i); });
}

void ServingEngine::reject(detail::PendingRequest& request, const char* why) {
  InferenceResponse response;
  response.status = RequestStatus::kRejected;
  response.error = why;
  response.priority = request.priority;
  response.total_us = monotonic_now_us() - request.submit_us;
  detail::resolve(request, std::move(response));
}

void ServingEngine::shed(detail::PendingRequest& request,
                         const std::string& why) {
  InferenceResponse response;
  response.status = RequestStatus::kShed;
  response.error = why;
  response.priority = request.priority;
  response.retries = request.attempts;
  response.total_us = monotonic_now_us() - request.submit_us;
  detail::resolve(request, std::move(response));
}

ResponseFuture ServingEngine::submit(Tensor images,
                                     SubmitOptions submit_options) {
  MSH_REQUIRE(images.shape().rank() == 4);
  MSH_REQUIRE(images.shape()[0] > 0);
  MSH_REQUIRE(submit_options.deadline_us >= 0.0);
  detail::PendingRequest request;
  request.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  request.rows = images.shape()[0];
  request.images = std::move(images);
  request.priority = submit_options.priority;
  request.submit_us = monotonic_now_us();
  const f64 relative_deadline = submit_options.deadline_us > 0.0
                                    ? submit_options.deadline_us
                                    : options_.request_deadline_us;
  if (relative_deadline > 0.0)
    request.deadline_us = request.submit_us + relative_deadline;
  request.state = std::make_shared<detail::ResponseState>();
  ResponseFuture future(request.state);

  // A powered-off engine cannot accept anything; give the client a more
  // actionable signal than the generic shutdown rejection. (Benign race:
  // a submit that slips past this check lands on the closed queue.)
  if (powered_off_.load(std::memory_order_acquire)) {
    metrics_.record_rejected(request.priority);
    reject(request, "power interruption: engine is down until restart");
    return future;
  }

  // Validate against the deployed model up front: a shape mismatch must
  // resolve here with a descriptive error, not blow up a worker
  // mid-batch (and take its batchmates down with it).
  const Shape& got = request.images.shape();
  if (got[1] != expected_image_[1] || got[2] != expected_image_[2] ||
      got[3] != expected_image_[3]) {
    const std::string why = "image shape mismatch: got " + got.to_string() +
                            ", deployed model expects [B, " +
                            std::to_string(expected_image_[1]) + ", " +
                            std::to_string(expected_image_[2]) + ", " +
                            std::to_string(expected_image_[3]) + "]";
    metrics_.record_rejected(request.priority);
    reject(request, why.c_str());
    return future;
  }

  // Admission gate: sustained per-class overload is shed here, before it
  // costs a queue slot.
  if (!admission_.admit(request.priority, request.submit_us)) {
    metrics_.record_shed(request.priority, request.rows);
    shed(request, std::string("admission rate limit exceeded for class ") +
                      to_string(request.priority));
    return future;
  }

  switch (queue_.push(std::move(request))) {
    case PushResult::kOk:
      metrics_.sample_queue_depth(queue_.depth());
      break;
    case PushResult::kOverClassBudget:
      // push leaves the request intact on failure.
      metrics_.record_shed(request.priority, request.rows);
      shed(request, std::string("class queue budget exhausted for ") +
                        to_string(request.priority));
      break;
    case PushResult::kFull:
      metrics_.record_rejected(request.priority);
      reject(request, "request queue full");
      break;
    case PushResult::kClosed:
      metrics_.record_rejected(request.priority);
      reject(request, "engine is shut down");
      break;
  }
  return future;
}

void ServingEngine::inject_worker_fault(i64 worker, WorkerFault fault,
                                        MtjFaultModel model, u64 seed) {
  MSH_REQUIRE(worker >= 0 && worker < workers());
  WorkerState& state = *states_[static_cast<size_t>(worker)];
  const std::lock_guard<std::mutex> guard(state.mutex);
  state.pending.push_back({fault, model, seed});
}

i64 ServingEngine::healthy_workers() const {
  i64 count = 0;
  for (const auto& state : states_)
    if (state->healthy.load(std::memory_order_acquire)) ++count;
  return count;
}

void ServingEngine::apply_pending_faults(i64 index) {
  WorkerState& state = *states_[static_cast<size_t>(index)];
  std::vector<PendingFault> faults;
  {
    const std::lock_guard<std::mutex> guard(state.mutex);
    faults.swap(state.pending);
  }
  for (const PendingFault& fault : faults) {
    switch (fault.fault) {
      case WorkerFault::kCrashNextBatch:
        state.crash_next = true;
        break;
      case WorkerFault::kCorruptNvm: {
        Rng rng(fault.seed);
        const FaultStats stats =
            replicas_[static_cast<size_t>(index)]->inject_nvm_faults(
                fault.model, rng);
        log_warn("worker ", index, ": chaos corrupted ", stats.bits_flipped,
                 " of ", stats.bits_examined, " NVM bits");
        break;
      }
    }
  }
}

void ServingEngine::heal(i64 index, const std::string& why) {
  WorkerState& state = *states_[static_cast<size_t>(index)];
  state.healthy.store(false, std::memory_order_release);
  log_warn("worker ", index, " quarantined: ", why, "; redeploying replica");
  // Rebuild the replica from its deployment source — the shared golden
  // model, or the swapped-in image — read-only on the model, so the
  // other workers keep serving while this one re-programs its arrays.
  // With wear tracking the rewrite goes through this worker's medium:
  // delta-programmed (undisturbed words cost nothing), kHeal-attributed.
  auto& replica = replicas_[static_cast<size_t>(index)];
  replica = replica->clone_with_wear(replica->wear_tracker(), WearPath::kHeal);
  state.batches_since_scrub = 0;
  metrics_.record_heal();
  if (replica->wear_tracker() != nullptr) {
    // Physical read-back gate before re-entering service: a worn-out
    // medium may simply no longer hold the image. Failure means degraded
    // mode — this worker leaves rotation permanently while the rest of
    // the fleet keeps serving. It never serves from corrupt arrays.
    const DeploymentImage* reference = replica->source_image().get();
    DeploymentImage own;
    if (reference == nullptr) {
      own = replica->export_image();
      reference = &own;
    }
    const std::string verify_error = replica->verify_against(*reference);
    refresh_wear_metrics();
    if (!verify_error.empty()) {
      state.degraded = true;
      metrics_.record_worker_degraded();
      log_error("worker ", index,
                " degraded: healed replica failed physical verify (",
                verify_error,
                "); MRAM medium is worn out, worker leaves service");
      return;  // healthy stays false
    }
  }
  state.healthy.store(
      state.breaker == BreakerState::kClosed || !options_.breaker.enabled,
      std::memory_order_release);
  log_info("worker ", index, " healed, back in service");
}

void ServingEngine::service_swap(i64 index) {
  WorkerState& state = *states_[static_cast<size_t>(index)];
  const std::lock_guard<std::mutex> guard(state.mutex);
  if (!state.incoming) return;
  // Install between batches: the in-flight batch already finished on the
  // old replica, so the handoff fails no request.
  state.outgoing = std::move(replicas_[static_cast<size_t>(index)]);
  replicas_[static_cast<size_t>(index)] = std::move(state.incoming);
  state.batches_since_scrub = 0;
  state.swap_cv.notify_all();
}

bool ServingEngine::hand_replica_to_worker(
    i64 index, std::unique_ptr<PimRepNetExecutor> replica,
    std::unique_ptr<PimRepNetExecutor>* previous, f64 timeout_us) {
  WorkerState& state = *states_[static_cast<size_t>(index)];
  std::unique_lock<std::mutex> lock(state.mutex);
  state.incoming = std::move(replica);
  // Ceil, not truncate: a sub-microsecond timeout must still wait.
  const auto deadline =
      std::chrono::steady_clock::now() + microseconds_ceil(timeout_us);
  while (state.outgoing == nullptr) {
    if (state.swap_cv.wait_until(lock, deadline) ==
            std::cv_status::timeout &&
        state.outgoing == nullptr) {
      // The worker never picked it up (e.g. shutdown raced the roll).
      state.incoming.reset();
      return false;
    }
  }
  *previous = std::move(state.outgoing);
  return true;
}

bool ServingEngine::swap_model(std::shared_ptr<const DeploymentImage> image,
                               SwapOptions swap) {
  MSH_REQUIRE(image != nullptr);
  MSH_REQUIRE(swap.worker_timeout_us > 0.0);
  const std::lock_guard<std::mutex> roll_guard(swap_mutex_);
  if (!running_.load(std::memory_order_acquire) ||
      shut_down_.load(std::memory_order_acquire)) {
    log_error("model swap refused: engine is not running");
    metrics_.record_swap(false, 0, 0);
    return false;
  }

  std::vector<std::unique_ptr<PimRepNetExecutor>> stash(
      static_cast<size_t>(workers()));
  i64 swapped = 0;
  std::string failure;
  for (i64 w = 0; w < workers(); ++w) {
    // Deploy: a fresh replica programmed from the image's codes, built
    // on this thread — no worker is disturbed yet.
    std::unique_ptr<PimRepNetExecutor> candidate;
    try {
      PimExecutorOptions exec = options_.executor;
      if (!wear_trackers_.empty()) {
        exec.wear = wear_trackers_[static_cast<size_t>(w)];
        exec.wear_path = swap.wear_path;
      }
      candidate = PimRepNetExecutor::deploy_from_image(model_, exec,
                                                       input_amax_, image);
    } catch (const std::exception& e) {
      failure =
          "worker " + std::to_string(w) + " deploy failed: " + e.what();
      break;
    }
    if (swap.deploy_fault_ber > 0.0) {
      Rng rng(swap.deploy_fault_seed + static_cast<u64>(w));
      candidate->inject_nvm_faults(
          MtjFaultModel::symmetric(swap.deploy_fault_ber), rng);
    }
    // Verify: physical probe read-back against the image before any
    // traffic can reach the candidate.
    const std::string verify_error = candidate->verify_against(*image);
    if (!verify_error.empty()) {
      failure =
          "worker " + std::to_string(w) + " verify failed: " + verify_error;
      break;
    }
    // Promote: the worker installs it between batches; its old replica
    // lands in the stash, drained but intact, in case we must roll back.
    if (!hand_replica_to_worker(w, std::move(candidate),
                                &stash[static_cast<size_t>(w)],
                                swap.worker_timeout_us)) {
      failure = "worker " + std::to_string(w) +
                " did not pick up the new replica";
      break;
    }
    ++swapped;
    log_info("model swap: worker ", w, " promoted (", swapped, "/",
             workers(), ")");
  }

  if (swapped == workers()) {
    metrics_.record_swap(true, swapped, 0);
    refresh_wear_metrics();
    log_info("model swap complete: ", swapped, " worker(s) promoted");
    return true;
  }

  i64 rollbacks = 0;
  for (i64 w = 0; w < swapped; ++w) {
    auto& previous = stash[static_cast<size_t>(w)];
    // Rolling back is a physical act too: the candidate's codes occupy
    // the arrays, so the stashed replica re-programs its own codes over
    // them (delta-programmed — only the words the candidate actually
    // changed take pulses).
    if (previous != nullptr && previous->wear_tracker() != nullptr)
      previous->reprogram_nvm(swap.wear_path);
    std::unique_ptr<PimRepNetExecutor> discarded;
    if (hand_replica_to_worker(w, std::move(previous), &discarded,
                               swap.worker_timeout_us))
      ++rollbacks;
  }
  log_error("model swap aborted: ", failure, "; rolled back ", rollbacks,
            " of ", swapped, " promoted worker(s)");
  metrics_.record_swap(false, swapped, rollbacks);
  refresh_wear_metrics();
  return false;
}

ServingEngine::PowerFailureReport ServingEngine::power_fail(
    const PowerFailureSpec& spec) {
  MSH_REQUIRE(spec.outage_s >= 0.0);
  // Serialize with swap_model: a mid-roll swap finishes (or times out)
  // before the lights go out, so no replica is lost in handoff limbo.
  const std::lock_guard<std::mutex> roll_guard(swap_mutex_);
  PowerFailureReport report;
  if (powered_off_.exchange(true, std::memory_order_acq_rel))
    return report;  // already dark
  // Order matters: flag first (workers abandon instead of draining),
  // then close the queue (stops admission, wakes blocked pops), then
  // join.
  queue_.close();
  for (auto& thread : threads_) thread.join();
  threads_.clear();
  running_.store(false, std::memory_order_release);
  // Whatever the workers left behind dies with the power.
  while (auto victim = queue_.pop(0.0)) {
    power_kill(*victim, /*worker=*/-1);
    ++report.requests_killed;
  }
  // Array-level damage, one deterministic stream per replica.
  for (i64 w = 0; w < workers(); ++w) {
    const auto stats = replicas_[static_cast<size_t>(w)]->power_fail(
        spec.outage_s,
        spec.seed + static_cast<u64>(w) * 0x9e3779b97f4a7c15ull,
        spec.retention_tau_s);
    report.sram_bytes_wiped += stats.sram_bytes_wiped;
    report.mram_bits_drifted += stats.mram_drift.bits_flipped;
  }
  // Replicas parked mid-swap are CMOS state too — gone with the power.
  for (auto& state : states_) {
    const std::lock_guard<std::mutex> guard(state->mutex);
    state->incoming.reset();
    state->outgoing.reset();
    state->pending.clear();
    state->crash_next = false;
    state->healthy.store(false, std::memory_order_release);
  }
  metrics_.record_outage(report.sram_bytes_wiped, report.mram_bits_drifted);
  log_warn("power interruption: ", spec.outage_s, " s outage killed ",
           report.requests_killed, " queued request(s), wiped ",
           report.sram_bytes_wiped, " SRAM byte(s), drifted ",
           report.mram_bits_drifted, " MRAM bit(s)");
  return report;
}

ServingEngine::RestartReport ServingEngine::restart(
    const RestartOptions& options) {
  const std::lock_guard<std::mutex> roll_guard(swap_mutex_);
  RestartReport report;
  const f64 start_us = monotonic_now_us();
  if (!powered_off_.load(std::memory_order_acquire)) {
    report.error = "restart() without a preceding power_fail()";
    return report;
  }
  if (shut_down_.load(std::memory_order_acquire)) {
    report.error = "engine was shut down; cannot restart";
    return report;
  }
  for (i64 w = 0; w < workers(); ++w) {
    auto& replica = replicas_[static_cast<size_t>(w)];
    const auto warm = replica->warm_restart();
    report.sram_cells_restored += warm.sram_cells_restored;
    report.ecc_corrected += warm.ecc_corrected;
    report.ecc_refetched += warm.ecc_refetched;
    // Verify-then-promote, the same physical read-back gate as a model
    // swap: recovered arrays must match the recovery image bit-exactly.
    // With no image given, a replica verifies against its own deployment
    // provenance (source image, or the golden codes it was programmed
    // with) — that still catches any MRAM drift the scrub missed.
    const DeploymentImage* reference = options.image.get();
    DeploymentImage own;
    if (reference == nullptr) {
      if (replica->source_image()) {
        reference = replica->source_image().get();
      } else {
        own = replica->export_image();
        reference = &own;
      }
    }
    std::string verify_error = replica->verify_against(*reference);
    if (verify_error.empty()) {
      ++report.workers_warm;
    } else {
      // Cold path: the replica was serving a generation the durable
      // store lost (rollback), or drift beat the code. Re-program the
      // arrays from the recovery image and verify again.
      log_warn("restart: worker ", w, " warm verify failed (", verify_error,
               "); cold redeploy");
      try {
        if (options.image) {
          PimExecutorOptions exec = options_.executor;
          if (!wear_trackers_.empty()) {
            exec.wear = wear_trackers_[static_cast<size_t>(w)];
            exec.wear_path = WearPath::kRecovery;
          }
          replica = PimRepNetExecutor::deploy_from_image(
              model_, exec, input_amax_, options.image);
        } else {
          replica = replica->clone_with_wear(replica->wear_tracker(),
                                             WearPath::kRecovery);
        }
      } catch (const std::exception& e) {
        report.error = "worker " + std::to_string(w) +
                       " cold redeploy failed: " + e.what();
        refresh_wear_metrics();
        return report;
      }
      verify_error = replica->verify_against(*reference);
      if (!verify_error.empty()) {
        report.error = "worker " + std::to_string(w) +
                       " failed verify even after cold redeploy: " +
                       verify_error;
        refresh_wear_metrics();
        return report;
      }
      ++report.workers_cold;
    }
  }
  refresh_wear_metrics();
  // All replicas verified: reset per-worker state (threads are joined,
  // so plain writes are safe), re-arm the queue, relight the pool.
  for (auto& state : states_) {
    state->batches_since_scrub = 0;
    state->consecutive_failures = 0;
    state->breaker = BreakerState::kClosed;
    state->open_until_us = 0.0;
    // Degraded mode survives power cycles: the medium is still worn.
    state->healthy.store(!state->degraded, std::memory_order_release);
  }
  queue_.reopen();
  powered_off_.store(false, std::memory_order_release);
  start();
  report.ok = true;
  report.rto_us = monotonic_now_us() - start_us;
  metrics_.record_recovery(report.rto_us, report.workers_warm,
                           report.workers_cold, report.sram_cells_restored,
                           report.ecc_corrected, report.ecc_refetched);
  log_info("restart complete in ", report.rto_us / 1000.0, " ms: ",
           report.workers_warm, " warm + ", report.workers_cold,
           " cold worker(s), ", report.ecc_corrected,
           " drifted bit(s) corrected, ", report.ecc_refetched,
           " word(s) re-fetched");
  return report;
}

bool ServingEngine::breaker_admits(i64 index) {
  if (!options_.breaker.enabled) return true;
  WorkerState& state = *states_[static_cast<size_t>(index)];
  if (state.breaker == BreakerState::kClosed) return true;
  // Shutdown drain must finish even with every breaker open: open gates
  // live traffic, and close() already stopped admission.
  if (queue_.closed()) return true;
  if (state.breaker == BreakerState::kOpen) {
    if (monotonic_now_us() < state.open_until_us) return false;
    state.breaker = BreakerState::kHalfOpen;
    metrics_.record_breaker_half_open();
    log_info("worker ", index, ": circuit breaker half-open, probing");
  }
  return true;
}

void ServingEngine::breaker_failure(i64 index) {
  if (!options_.breaker.enabled) return;
  WorkerState& state = *states_[static_cast<size_t>(index)];
  ++state.consecutive_failures;
  const bool trip =
      state.breaker == BreakerState::kHalfOpen ||
      (state.breaker == BreakerState::kClosed &&
       state.consecutive_failures >= options_.breaker.failure_threshold);
  if (!trip) return;
  state.breaker = BreakerState::kOpen;
  state.open_until_us = monotonic_now_us() + options_.breaker.cooldown_us;
  state.healthy.store(false, std::memory_order_release);
  metrics_.record_breaker_open();
  log_warn("worker ", index, ": circuit breaker open after ",
           state.consecutive_failures, " consecutive failure signal(s), ",
           "cooling down ", options_.breaker.cooldown_us, " us");
}

void ServingEngine::breaker_success(i64 index) {
  if (!options_.breaker.enabled) return;
  WorkerState& state = *states_[static_cast<size_t>(index)];
  state.consecutive_failures = 0;
  if (state.breaker == BreakerState::kClosed) return;
  state.breaker = BreakerState::kClosed;
  state.healthy.store(true, std::memory_order_release);
  metrics_.record_breaker_close();
  log_info("worker ", index, ": circuit breaker closed");
}

bool ServingEngine::shed_or_expire(detail::PendingRequest& request,
                                   f64 now_us) {
  if (request.deadline_us <= 0.0) return false;
  const f64 queued_us = now_us - request.submit_us;
  if (now_us >= request.deadline_us) {
    InferenceResponse response;
    response.status = RequestStatus::kTimedOut;
    response.error = "deadline expired before dispatch";
    response.priority = request.priority;
    response.retries = request.attempts;
    response.queue_us = queued_us;
    response.total_us = queued_us;
    metrics_.record_timed_out(request.priority, request.rows);
    detail::resolve(request, std::move(response));
    return true;
  }
  const f64 est_per_row = est_us_per_row_.load(std::memory_order_relaxed);
  if (est_per_row <= 0.0) return false;  // no estimate yet: give it a shot
  const f64 service_us = est_per_row * static_cast<f64>(request.rows);
  if (now_us + service_us <= request.deadline_us) return false;
  // Unmeetable but not yet expired: shed now, with attribution, instead
  // of burning PIM cycles on a result nobody will wait for.
  metrics_.record_shed(request.priority, request.rows);
  shed(request,
       "deadline unmeetable: queued " +
           std::to_string(static_cast<i64>(queued_us)) +
           " us, estimated service " +
           std::to_string(static_cast<i64>(service_us)) +
           " us exceeds remaining budget " +
           std::to_string(static_cast<i64>(request.deadline_us - now_us)) +
           " us");
  return true;
}

void ServingEngine::scrub_and_heal(i64 index) {
  const auto reports = replicas_[static_cast<size_t>(index)]->scrub();
  EccStats totals;
  for (const auto& report : reports) {
    totals += report.weights;
    totals += report.indices;
  }
  metrics_.record_scrub(totals.corrected, totals.detected_uncorrectable,
                        totals.silent);
  if (totals.corrected > 0) refresh_wear_metrics();  // repairs took pulses
  if (totals.corrected > 0)
    log_info("worker ", index, ": scrub corrected ", totals.corrected,
             " single-bit error(s)");
  if (totals.detected_uncorrectable > 0 || totals.silent > 0) {
    if (options_.self_heal) {
      heal(index, "scrub found " +
                      std::to_string(totals.detected_uncorrectable) +
                      " uncorrectable + " + std::to_string(totals.silent) +
                      " silent corrupt word(s)");
    } else {
      log_error("worker ", index, ": scrub found ",
                totals.detected_uncorrectable, " uncorrectable + ",
                totals.silent, " silent corrupt word(s); self-heal is off");
    }
    breaker_failure(index);
  }
}

void ServingEngine::shadow_check(i64 index, const Tensor& images,
                                 const Tensor& served) {
  std::string why;
  try {
    const Tensor modeled =
        replicas_[static_cast<size_t>(index)]->forward_with(
            KernelBackend::kModeled, images);
    if (std::memcmp(modeled.data(), served.data(),
                    sizeof(f32) * static_cast<size_t>(served.numel())) != 0)
      why = "logits differ by up to " +
            std::to_string(max_abs_diff(modeled, served));
  } catch (const std::exception& e) {
    why = std::string("modeled re-run threw: ") + e.what();
  }
  metrics_.record_shadow(why.empty());
  if (!why.empty())
    log_error("worker ", index, ": shadow check mismatch on ",
              images.shape()[0], " row(s): ", why);
}

void ServingEngine::power_kill(detail::PendingRequest& request, i64 worker) {
  InferenceResponse response;
  response.status = RequestStatus::kPowerLoss;
  response.error = "power interruption killed the request in flight";
  response.priority = request.priority;
  response.worker = worker;
  response.retries = request.attempts;
  response.total_us = monotonic_now_us() - request.submit_us;
  metrics_.record_power_loss(request.priority);
  detail::resolve(request, std::move(response));
}

void ServingEngine::serve_batch(i64 index, MicroBatch& batch) {
  // The outage beat this batch to the arrays: nothing was computed.
  if (powered_off_.load(std::memory_order_acquire)) {
    for (auto& request : batch.requests) power_kill(request, index);
    return;
  }
  apply_pending_faults(index);
  WorkerState& state = *states_[static_cast<size_t>(index)];

  // Deadline gate: requests whose budget expired while queued (or while
  // bouncing between failed replicas) resolve kTimedOut before burning
  // hardware time; the rest of the batch is rebuilt and served. The
  // batcher's shed hook already caught most of these at pickup; this is
  // the last line, right before dispatch.
  {
    const f64 now = monotonic_now_us();
    std::vector<detail::PendingRequest> live;
    live.reserve(batch.requests.size());
    for (auto& request : batch.requests) {
      if (request.deadline_us > 0.0 && now >= request.deadline_us) {
        InferenceResponse response;
        response.status = RequestStatus::kTimedOut;
        response.error = "deadline expired before dispatch";
        response.priority = request.priority;
        response.worker = index;
        response.retries = request.attempts;
        response.total_us = now - request.submit_us;
        metrics_.record_timed_out(request.priority, request.rows);
        detail::resolve(request, std::move(response));
      } else {
        live.push_back(std::move(request));
      }
    }
    if (live.empty()) return;
    if (live.size() != batch.requests.size()) {
      batch.requests = std::move(live);
      batch.rows = 0;
      for (const auto& request : batch.requests) batch.rows += request.rows;
      assemble_batch_images(batch);
    } else {
      batch.requests = std::move(live);
    }
  }

  metrics_.record_batch(batch.rows, batch.close_reason);
  const f64 dispatch_start_us = monotonic_now_us();
  Tensor logits;
  std::string error;
  bool ok = true;
  if (state.crash_next) {
    state.crash_next = false;
    ok = false;
    error = "injected replica fault";
    log_error("worker ", index, ": batch of ", batch.rows,
              " rows failed: ", error);
  } else {
    try {
      logits = replicas_[static_cast<size_t>(index)]->forward(batch.images);
    } catch (const std::exception& e) {
      ok = false;
      error = e.what();
      log_error("worker ", index, ": batch of ", batch.rows,
                " rows failed: ", error);
    }
  }

  // The outage hit while the batch was on the arrays (or between forward
  // and resolve): the responses never left the device. Kill them rather
  // than hand out results computed on dying hardware — and never heal or
  // retry into a powered-off engine.
  if (powered_off_.load(std::memory_order_acquire)) {
    for (auto& request : batch.requests) power_kill(request, index);
    return;
  }

  if (!ok) {
    // A zero-copy single-request batch adopted the request's tensor
    // (assemble_batch_images); hand it back so a retry re-enters the
    // queue with its payload intact.
    if (batch.requests.size() == 1 && batch.requests.front().images.empty()) {
      batch.requests.front().images = std::move(batch.images);
    }
    if (options_.self_heal) heal(index, error);
    breaker_failure(index);
    // Retry in-flight requests at the head of the queue (they already
    // paid admission); the budget bounds how many failures one request
    // may ride through. Reverse order keeps FIFO intact.
    for (auto it = batch.requests.rbegin(); it != batch.requests.rend();
         ++it) {
      detail::PendingRequest& request = *it;
      if (request.attempts < options_.max_retries) {
        ++request.attempts;
        metrics_.record_retry();
        queue_.push_front(std::move(request));
      } else {
        InferenceResponse response;
        response.status = RequestStatus::kFailed;
        response.error = error + " (retry budget exhausted)";
        response.priority = request.priority;
        response.worker = index;
        response.batch_rows = batch.rows;
        response.retries = request.attempts;
        response.total_us = monotonic_now_us() - request.submit_us;
        metrics_.record_failed(request.priority, request.rows);
        detail::resolve(request, std::move(response));
      }
    }
    return;
  }

  MSH_ENSURE(logits.shape()[0] == batch.rows);
  const f64 done_us = monotonic_now_us();
  const i64 classes = logits.shape()[1];

  // Feed the shed policy's service-time model. Relaxed: a lost update
  // just means a slightly staler estimate.
  const f64 per_row =
      (done_us - dispatch_start_us) / static_cast<f64>(batch.rows);
  const f64 prev = est_us_per_row_.load(std::memory_order_relaxed);
  est_us_per_row_.store(prev <= 0.0 ? per_row : 0.8 * prev + 0.2 * per_row,
                        std::memory_order_relaxed);

  // The shadow oracle compares against exactly what was served; keep a
  // copy before the logits move into the responses.
  Tensor shadow_served;
  const bool shadow_due =
      options_.shadow_every_batches > 0 &&
      ++state.batches_since_shadow >= options_.shadow_every_batches;
  if (shadow_due) {
    state.batches_since_shadow = 0;
    shadow_served = logits;
  }

  i64 row = 0;
  for (auto& request : batch.requests) {
    InferenceResponse response;
    response.priority = request.priority;
    response.worker = index;
    response.batch_rows = batch.rows;
    response.retries = request.attempts;
    // Queue latency includes batch-formation wait: it is the full
    // submit -> hardware-dispatch gap a client experiences.
    response.queue_us = batch.formed_us - request.submit_us;
    response.total_us = done_us - request.submit_us;
    response.status = RequestStatus::kOk;
    if (batch.requests.size() == 1) {
      // Single-request batch: the whole logits tensor is this request's
      // answer — move it instead of copying (zero-copy out, matching the
      // zero-copy in).
      response.logits = std::move(logits);
    } else {
      response.logits = Tensor(Shape{request.rows, classes});
      std::memcpy(response.logits.data(), logits.data() + row * classes,
                  sizeof(f32) * static_cast<size_t>(request.rows * classes));
    }
    metrics_.record_completed(request.priority, request.rows,
                              response.queue_us, response.total_us);
    row += request.rows;
    detail::resolve(request, std::move(response));
  }

  // Breaker signals from a served batch: a latency outlier is a strike,
  // anything else is a success (which also closes a half-open probe).
  if (options_.breaker.latency_outlier_us > 0.0 &&
      done_us - dispatch_start_us > options_.breaker.latency_outlier_us) {
    breaker_failure(index);
  } else {
    breaker_success(index);
  }

  // Off the reply path, and before any scrub repairs the cells the batch
  // was served from.
  if (shadow_due) shadow_check(index, batch.images, shadow_served);

  if (options_.scrub_every_batches > 0 &&
      ++state.batches_since_scrub >= options_.scrub_every_batches) {
    state.batches_since_scrub = 0;
    scrub_and_heal(index);
  }
}

void ServingEngine::worker_loop(i64 index) {
  DynamicBatcher batcher(queue_, options_.batcher,
                         [this](detail::PendingRequest& request, f64 now) {
                           return shed_or_expire(request, now);
                         });
  WorkerState& state = *states_[static_cast<size_t>(index)];
  while (true) {
    // Power loss: stop dead — no draining, the backlog dies with the
    // power (power_fail resolves it as kPowerLoss).
    if (powered_off_.load(std::memory_order_acquire)) break;
    service_swap(index);
    if (state.degraded) {
      // Worn-out medium: permanently out of dequeue. Still parks here
      // (not exits) so shutdown drains cleanly through the others.
      if (queue_.closed()) break;
      std::this_thread::sleep_for(microseconds_ceil(options_.idle_poll_us));
      continue;
    }
    if (!breaker_admits(index)) {
      // Open breaker: stay out of dequeue, let the others take the load.
      std::this_thread::sleep_for(microseconds_ceil(options_.idle_poll_us));
      continue;
    }
    auto batch = batcher.next(options_.idle_poll_us);
    if (!batch) {
      // nullopt on a closed queue means closed *and* drained: done.
      if (queue_.closed()) break;
      continue;  // idle tick, or every picked-up request was shed
    }
    serve_batch(index, *batch);
  }
  service_swap(index);  // don't strand a replica parked by a late swap
  // Finalize the breaker: open only gates traffic, the replica behind it
  // was already healed, and there is no traffic left — the engine ends
  // fully in service. A degraded worker stays out: its arrays are gone.
  if (state.degraded) return;
  if (state.breaker != BreakerState::kClosed) {
    state.breaker = BreakerState::kClosed;
    state.healthy.store(true, std::memory_order_release);
    metrics_.record_breaker_close();
  }
}

void ServingEngine::refresh_wear_metrics() {
  if (wear_trackers_.empty()) return;
  WearTotals totals;
  for (const auto& tracker : wear_trackers_) totals += tracker->totals();
  metrics_.update_wear(totals);
}

void ServingEngine::shutdown() {
  if (shut_down_.exchange(true, std::memory_order_acq_rel)) return;
  queue_.close();  // stop admission; workers drain the backlog
  for (auto& thread : threads_) thread.join();
  threads_.clear();
  running_.store(false, std::memory_order_release);
  // Never-started engine: resolve whatever was staged in the queue.
  while (auto leftover = queue_.pop(0.0)) {
    metrics_.record_rejected(leftover->priority);
    reject(*leftover, "engine shut down before serving");
  }
}

}  // namespace msh
