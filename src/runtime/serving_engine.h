// Concurrent batched inference serving over the hybrid PIM executor.
//
// Concurrency model: replication, not locking. The engine deploys one
// PimRepNetExecutor replica per worker thread at construction (each with
// its own HybridCore and quantized weight image — on real silicon, one
// accelerator instance per replica); workers then run their replica
// single-threaded, exactly as the executor requires. The trained
// RepNetModel is shared read-only across replicas. Requests flow:
//
//   submit() -> admission gate (per-class token buckets)
//            -> RequestQueue (bounded; per-class budgets; EDF within
//               class, strict priority across classes)
//            -> DynamicBatcher (per worker: coalesce up to
//               max_batch_rows / max_wait_us, closing at once when
//               the queue is empty and a peer worker is idle;
//               unmeetable deadlines shed)
//            -> replica forward() -> per-request logits -> ResponseFuture
//
// Overload control (status semantics):
//   kRejected — backpressure: global queue capacity exhausted, or the
//               engine is shut down. The client should retry with jitter.
//   kShed     — overload policy dropped the request: admission rate limit,
//               class queue budget, or a deadline the current service-time
//               estimate says cannot be met. Retrying immediately is
//               pointless; back off or lower the offered load.
//   kTimedOut — the request's deadline expired while it waited.
// Under overload, best-effort traffic sheds first (strict-priority
// dequeue + per-class budgets), keeping interactive goodput intact.
//
// Each worker also runs a circuit breaker (closed -> open -> half-open):
// consecutive dispatch failures, scrub-detected corruption, or latency
// outliers open it, taking the worker out of dequeue for a cooldown
// while the remaining workers absorb the load; a half-open probe batch
// closes it again. Breakers gate traffic only — the PR2 self-heal path
// still quarantines and redeploys the replica on every failure.
//
// Model lifecycle: swap_model() rolls a new DeploymentImage across the
// workers one at a time with a deploy -> verify -> promote handshake
// (never taking more than one worker out of rotation), so serving
// capacity never drops to zero and no accepted request is failed by the
// swap. A failed verify rolls already-promoted workers back.
//
// Per-sample results are bit-identical to calling
// PimRepNetExecutor::forward sequentially on the same inputs, regardless
// of worker count or how requests were coalesced (every operator in the
// hardware path is per-sample).
#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "deploy/pim_executor.h"
#include "runtime/admission.h"
#include "runtime/dynamic_batcher.h"
#include "runtime/request_queue.h"
#include "runtime/serving_metrics.h"

namespace msh {

/// Per-worker circuit breaker policy. The breaker is a traffic gate: an
/// open breaker stops its worker from dequeuing (other workers absorb
/// the load) until the cooldown elapses, then a single half-open probe
/// batch decides between closing and re-opening.
struct BreakerOptions {
  bool enabled = true;
  /// Consecutive failure signals (dispatch failure, scrub corruption,
  /// latency outlier) that trip a closed breaker.
  i64 failure_threshold = 3;
  /// How long an open breaker holds its worker out of dequeue.
  f64 cooldown_us = 20000.0;
  /// Batch service times above this count as failure signals (a slow
  /// replica is a suspect replica). 0 disables the latency signal.
  f64 latency_outlier_us = 0.0;
};

/// Knobs for one swap_model() roll.
struct SwapOptions {
  /// How long to wait for a worker to pick up its new replica (workers
  /// check between batches and on every idle tick).
  f64 worker_timeout_us = 5e6;
  /// Test hook: corrupt the candidate replica's MRAM cells with this
  /// symmetric bit-error rate after deployment, modeling failed array
  /// programming — the verify step must catch it and roll back.
  f64 deploy_fault_ber = 0.0;
  u64 deploy_fault_seed = 1;
  /// Wear attribution for this roll's programming pulses (the continual
  /// lane publishes with kPublish; operator swaps keep kSwap).
  WearPath wear_path = WearPath::kSwap;
};

struct ServingEngineOptions {
  i64 workers = 2;           ///< executor replicas == worker threads
  i64 queue_capacity = 64;   ///< admission bound (requests, not rows)
  BatcherOptions batcher = {};
  PimExecutorOptions executor = {};
  /// Inert, kept so existing `= 1` settings still compile: every replica
  /// runs its layers on its worker thread alone, and the constructor
  /// rejects values above 1.
  i64 intra_op_threads = 0;
  /// Per-class token buckets + queue budgets. Defaults admit everything.
  AdmissionOptions admission = {};
  BreakerOptions breaker = {};
  /// When false the engine is built stopped: submissions queue up (or
  /// reject) until start(). Lets tests stage deterministic backlogs.
  bool autostart = true;
  /// Worker wake cadence while the queue is idle.
  f64 idle_poll_us = 1000.0;
  /// Extra dispatch attempts per accepted request after a replica
  /// failure; exhausting the budget resolves kFailed.
  i64 max_retries = 2;
  /// Default per-request budget (submit -> dispatch) for requests that
  /// do not carry their own SubmitOptions::deadline_us; a request still
  /// undispatched past it resolves kTimedOut (or kShed, if the engine
  /// can tell early that the deadline is unmeetable). 0 disables the
  /// default deadline.
  f64 request_deadline_us = 0.0;
  /// Quarantine + redeploy a replica after a serving failure or an
  /// uncorrectable-ECC scrub signal.
  bool self_heal = true;
  /// Run an ECC scrub pass on a worker's replica every N served
  /// batches (0 = never). Scrubs repair single-bit errors in place;
  /// with self_heal, uncorrectable or silent corruption triggers a
  /// redeploy.
  i64 scrub_every_batches = 0;
  /// Shadow oracle: re-run every Nth served batch on a worker through
  /// the modeled kernels on the same replica's live cells, after its
  /// responses resolved, and compare the logits byte for byte (0 =
  /// never). A mismatch means the serving backend diverged from the
  /// cycle model; it is counted in metrics "resilience" and logged.
  i64 shadow_every_batches = 0;
  /// MRAM endurance management. With `wear.enabled`, each worker gets a
  /// persistent MramWearTracker modeling its accelerator's physical
  /// medium: every programming path (deploy, heal, swap, publish, scrub
  /// repair, recovery) writes through it — delta programming, bounded
  /// write-verify-retry, bank remapping onto spares — and a healed
  /// replica must pass physical verify before re-entering service. A
  /// worker whose medium can no longer hold the image goes *degraded*:
  /// permanently out of rotation, the remaining workers keep serving
  /// (never silent corruption). See metrics "wear" section.
  WearOptions wear = {};
};

/// Chaos-engineering faults a test/bench can aim at a worker. Applied on
/// the owning worker thread between batches (replicas are
/// single-threaded), so injection is race-free by construction.
enum class WorkerFault {
  kCrashNextBatch,  ///< the replica's next dispatch throws
  kCorruptNvm,      ///< MTJ bit errors land on the replica's MRAM arrays
};

class ServingEngine {
 public:
  /// Deploys `options.workers` executor replicas from the shared trained
  /// `model` (sequentially, during construction) and, unless
  /// `autostart` is off, launches the worker pool.
  ServingEngine(RepNetModel& model, const Dataset& calibration,
                ServingEngineOptions options = {});
  /// Shuts down (draining accepted requests) if still running.
  ~ServingEngine();

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// Enqueues a request. Never blocks and never throws on overload; the
  /// returned future is always valid and always resolves:
  ///   - admission rate limit / class budget exceeded, or the deadline
  ///     already unmeetable      -> kShed (immediately)
  ///   - global queue full       -> kRejected (immediately)
  ///   - engine shut down (before, during, or after this call) ->
  ///     kRejected with error "engine is shut down". Submitting to a
  ///     shut-down engine is well-defined and safe — a cheap, final
  ///     rejection ticket, not UB and not a hang.
  /// `images` must be [B, C, H, W], B >= 1 (shape is contract-checked;
  /// a channel/spatial mismatch with the deployed model rejects).
  ResponseFuture submit(Tensor images, SubmitOptions options = {});

  /// Launches the worker pool (no-op when already running).
  void start();

  /// Stops admission, drains every accepted request, joins workers.
  /// Requests still queued when the engine never ran (autostart off,
  /// start() never called) resolve as kRejected. Idempotent.
  void shutdown();

  /// Zero-downtime model replacement: rolls `image` across the workers
  /// one at a time. For each worker the engine deploys a fresh replica
  /// from the image, physically verifies it (probe matvec through the PE
  /// arrays against the image's reference results), and only then hands
  /// it to the worker, which installs it between batches — in-flight
  /// requests finish on the old replica, and at most one worker is ever
  /// out of rotation. On a deploy/verify failure the roll stops and
  /// already-promoted workers are rolled back to their old (still
  /// intact) replicas. Returns true when every worker was promoted.
  /// Thread-safe; one swap runs at a time. Requires a running engine.
  /// After a successful swap, self-heal redeploys from `image` (the
  /// image becomes the replicas' deployment provenance).
  bool swap_model(std::shared_ptr<const DeploymentImage> image,
                  SwapOptions options = {});

  /// Parameters of one simulated power interruption.
  struct PowerFailureSpec {
    f64 outage_s = 1.0;  ///< how long the device stays dark
    u64 seed = 1;        ///< SRAM scramble + MRAM drift randomness
    /// MRAM retention time constant; <= 0 keeps the device default.
    f64 retention_tau_s = 0.0;
  };
  /// What the outage destroyed.
  struct PowerFailureReport {
    /// Accepted-but-unserved requests drained from the queue and killed
    /// (workers additionally kill their in-flight batch; every victim is
    /// counted in metrics().recovery.power_loss_requests).
    i64 requests_killed = 0;
    i64 sram_bytes_wiped = 0;    ///< volatile PE payload bytes scrambled
    i64 mram_bits_drifted = 0;   ///< retention flips across all replicas
  };

  /// Simulates a power interruption: admission stops, workers abandon
  /// (not drain) their work — every in-flight and queued request
  /// resolves kPowerLoss — threads join, and the replica arrays take
  /// physical damage (SRAM scrambled, MRAM retention drift; see
  /// PimRepNetExecutor::power_fail). The engine stays down until
  /// restart(); submit() during the outage rejects. Deterministic in
  /// `spec.seed`. Idempotent while already powered off. Serialized with
  /// swap_model — an in-progress roll finishes (or times out) first.
  PowerFailureReport power_fail(const PowerFailureSpec& spec);
  PowerFailureReport power_fail() { return power_fail(PowerFailureSpec{}); }

  /// Knobs for one restart() recovery.
  struct RestartOptions {
    /// Durable last-good image to recover onto (the RecoveryManager
    /// passes what DurableState::load_last_good found). Null: each
    /// replica recovers onto its own deployment provenance (its source
    /// image, or the golden model).
    std::shared_ptr<const DeploymentImage> image;
  };
  /// Recovery outcome + cost accounting.
  struct RestartReport {
    bool ok = false;
    std::string error;  ///< empty when ok
    f64 rto_us = 0.0;   ///< restart() wall time (recovery time objective)
    i64 workers_warm = 0;  ///< warm-restart verified, no redeploy needed
    i64 workers_cold = 0;  ///< failed warm verify, fully re-programmed
    i64 sram_cells_restored = 0;
    i64 ecc_corrected = 0;  ///< MRAM drift fixed by the recovery scrub
    i64 ecc_refetched = 0;  ///< detected-uncorrectable, golden re-fetch
  };

  /// Cold-boot recovery after power_fail(): per worker, warm-restart the
  /// replica (SRAM re-programmed from golden, repairing MRAM scrub) and
  /// physically verify it against the recovery image — the same
  /// verify-then-promote gate as a model swap. A replica that fails the
  /// warm verify (e.g. it was serving a generation the durable store
  /// lost, or drift beat the ECC) is cold-redeployed from the image and
  /// verified again. On success the queue reopens and the worker pool
  /// relaunches; on failure the engine stays down (safe to retry with a
  /// different image). No request is ever served by an unverified
  /// replica.
  RestartReport restart(const RestartOptions& options);
  RestartReport restart() { return restart(RestartOptions{}); }

  /// True between power_fail() and a successful restart().
  bool powered_off() const {
    return powered_off_.load(std::memory_order_acquire);
  }

  i64 workers() const { return static_cast<i64>(replicas_.size()); }
  bool running() const { return running_.load(std::memory_order_acquire); }
  i64 queue_depth() const { return queue_.depth(); }
  /// Workers blocked in the queue waiting for a first request right now.
  i64 idle_workers() const { return queue_.idle_consumers(); }
  i64 queue_capacity() const { return queue_.capacity(); }

  const ServingMetrics& metrics() const { return metrics_; }
  /// Mutable metrics handle for co-located recorders (the
  /// continual-learning lane writes its training_lane section here).
  /// ServingMetrics is internally synchronized.
  ServingMetrics& metrics() { return metrics_; }
  std::string metrics_json() const { return metrics_.to_json(); }

  /// The options the engine was built with (e.g. so a continual-learning
  /// lane can calibrate its trainer replica identically).
  const ServingEngineOptions& options() const { return options_; }
  /// The shared trained model the replicas were deployed from. Workers
  /// treat it as strictly read-only; so must callers while the engine
  /// runs — mutate a *separate* mirrored model instead (see
  /// runtime/continual).
  RepNetModel& model() { return model_; }

  /// Replica inspection (e.g. PE event counts per worker). Not valid
  /// while the engine is running with self-heal enabled — a heal swaps
  /// the replica out from under the reference; inspect after shutdown.
  const PimRepNetExecutor& replica(i64 i) const;

  /// Queues a chaos fault for `worker`; the worker applies it before
  /// its next dispatch. `model` + `seed` parameterize kCorruptNvm
  /// (ignored for kCrashNextBatch).
  void inject_worker_fault(i64 worker, WorkerFault fault,
                           MtjFaultModel model = {}, u64 seed = 1);

  /// Workers currently in service (not quarantined mid-heal, circuit
  /// breaker not open).
  i64 healthy_workers() const;

  /// Worker `i`'s physical-medium model (null without wear tracking).
  const MramWearTracker* wear_tracker(i64 i) const {
    if (i < 0 || i >= static_cast<i64>(wear_trackers_.size()))
      return nullptr;
    return wear_trackers_[static_cast<size_t>(i)].get();
  }

  /// Re-aggregates every worker tracker into the metrics "wear" section.
  /// The engine calls it after each programming event; benches may call
  /// it before snapshotting. No-op without wear tracking.
  void refresh_wear_metrics();

 private:
  struct PendingFault {
    WorkerFault fault = WorkerFault::kCrashNextBatch;
    MtjFaultModel model;
    u64 seed = 1;
  };
  enum class BreakerState { kClosed, kOpen, kHalfOpen };
  /// Per-worker mutable state. `pending` and the swap handoff slots are
  /// the cross-thread channels (guarded by `mutex`); breaker fields,
  /// `crash_next` and the batch cadence counters are owner-thread only;
  /// `healthy` is read by observers.
  struct WorkerState {
    std::mutex mutex;
    std::vector<PendingFault> pending;
    /// swap_model -> worker handoff: the coordinator parks the verified
    /// replica in `incoming`; the worker installs it between batches and
    /// parks the old one in `outgoing`, signalling `swap_cv`.
    std::unique_ptr<PimRepNetExecutor> incoming;
    std::unique_ptr<PimRepNetExecutor> outgoing;
    std::condition_variable swap_cv;
    bool crash_next = false;
    i64 batches_since_scrub = 0;
    i64 batches_since_shadow = 0;
    BreakerState breaker = BreakerState::kClosed;
    i64 consecutive_failures = 0;
    f64 open_until_us = 0.0;
    /// Degraded mode (owner thread only): the worker's MRAM medium can
    /// no longer hold the served image (heal verify failed after wear-
    /// out). The worker leaves dequeue permanently; `healthy` stays
    /// false. Never serves a corrupt result.
    bool degraded = false;
    std::atomic<bool> healthy{true};
  };

  void worker_loop(i64 index);
  void serve_batch(i64 index, MicroBatch& batch);
  void apply_pending_faults(i64 index);
  void scrub_and_heal(i64 index);
  /// Shadow oracle: re-runs `images` on worker `index`'s replica through
  /// the modeled kernels and compares against the `served` logits.
  void shadow_check(i64 index, const Tensor& images, const Tensor& served);
  /// Quarantines worker `index` and redeploys its replica from its
  /// deployment source (the shared golden model, or the swapped image).
  /// Runs on the owning worker thread.
  void heal(i64 index, const std::string& why);
  /// Installs a pending swapped-in replica, if any (owner thread).
  void service_swap(i64 index);
  /// Breaker gate: false while open and cooling down (owner thread).
  bool breaker_admits(i64 index);
  void breaker_failure(i64 index);
  void breaker_success(i64 index);
  /// Batcher shed hook: resolves expired (kTimedOut) or unmeetable
  /// (kShed) requests at pickup; true when the request was consumed.
  bool shed_or_expire(detail::PendingRequest& request, f64 now_us);
  /// Parks `replica` for worker `index` and waits for the handoff;
  /// stores the replaced replica in `*previous`.
  bool hand_replica_to_worker(i64 index,
                              std::unique_ptr<PimRepNetExecutor> replica,
                              std::unique_ptr<PimRepNetExecutor>* previous,
                              f64 timeout_us);
  static void reject(detail::PendingRequest& request, const char* why);
  static void shed(detail::PendingRequest& request, const std::string& why);
  /// Resolves a request as kPowerLoss (outage victim) and records it.
  void power_kill(detail::PendingRequest& request, i64 worker);

  ServingEngineOptions options_;
  RepNetModel& model_;
  /// One physical-medium model per worker (empty without wear tracking).
  /// Declared before replicas_: the replicas are deployed through them.
  std::vector<std::shared_ptr<MramWearTracker>> wear_trackers_;
  std::vector<std::unique_ptr<PimRepNetExecutor>> replicas_;
  RequestQueue queue_;
  AdmissionGate admission_;
  ServingMetrics metrics_;
  std::vector<std::thread> threads_;
  std::vector<std::unique_ptr<WorkerState>> states_;
  /// Calibration ranges, copied from replica 0: lets swap_model deploy
  /// image candidates without touching any worker-owned replica.
  std::unordered_map<const void*, f32> input_amax_;
  Shape expected_image_;  ///< [1, C, H, W] the deployment was built for
  std::mutex swap_mutex_;  ///< one swap_model roll at a time
  /// EWMA of per-row batch service time, written by workers and read by
  /// the shed policy. Relaxed atomics: an estimate, not an invariant.
  std::atomic<f64> est_us_per_row_{0.0};
  std::atomic<bool> running_{false};
  std::atomic<bool> shut_down_{false};
  /// Set by power_fail(), cleared by a successful restart(). Workers
  /// abandon (never drain) their work while set.
  std::atomic<bool> powered_off_{false};
  std::atomic<u64> next_id_{1};
};

}  // namespace msh
