// Serving observability: per-request latency percentiles from a
// fixed-bucket histogram (overall and per priority class), throughput
// counters, batch-size distribution, queue-depth samples, rejection /
// shed counts, circuit-breaker transitions and model-swap outcomes. All
// entry points are thread-safe (one mutex; recording is a handful of
// integer bumps). Snapshots are plain structs; to_json() emits a stable,
// documented schema (see DESIGN.md §"Serving runtime" and §5d) for
// offline analysis and tools/metrics_view.
#pragma once

#include <array>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.h"
#include "device/wear.h"
#include "runtime/dynamic_batcher.h"
#include "runtime/request.h"

namespace msh {

/// Log-spaced fixed-bucket latency histogram. Bounded memory, O(buckets)
/// percentile queries, no per-sample allocation: the standard shape for
/// always-on serving metrics. Buckets grow 1.4x from 1us (top bucket
/// ~37min); out-of-range samples clamp into the edge buckets.
class LatencyHistogram {
 public:
  static constexpr i64 kBuckets = 64;

  void record(f64 latency_us);

  i64 count() const { return count_; }
  f64 sum_us() const { return sum_us_; }
  f64 mean_us() const { return count_ == 0 ? 0.0 : sum_us_ / count_; }
  f64 max_us() const { return max_us_; }

  /// Percentile estimate (p in [0, 100]): upper bound of the bucket that
  /// contains the p-th sample. Zero when empty.
  f64 percentile_us(f64 p) const;

  /// Upper bound of bucket i (exclusive); shared by all histograms.
  static f64 bucket_bound_us(i64 i);

  const std::array<i64, kBuckets>& buckets() const { return buckets_; }

 private:
  std::array<i64, kBuckets> buckets_{};
  i64 count_ = 0;
  f64 sum_us_ = 0.0;
  f64 max_us_ = 0.0;
};

/// Request outcomes and end-to-end latency for one priority class.
struct ClassCounters {
  i64 completed = 0;
  i64 rejected = 0;
  i64 shed = 0;
  i64 failed = 0;
  i64 timed_out = 0;
  i64 power_loss = 0;  ///< killed in flight by a power interruption
  LatencyHistogram total_latency;
};

/// Power-interruption lifecycle: outages taken, requests lost, warm vs
/// cold recoveries, recovery-time objective, and what the durable-state
/// replay recovered (see runtime/recovery).
struct RecoveryCounters {
  i64 outages = 0;
  i64 power_loss_requests = 0;  ///< in-flight + queued requests killed
  i64 recoveries = 0;           ///< successful restart() completions
  i64 workers_warm = 0;         ///< warm-restart verified
  i64 workers_cold = 0;         ///< cold-redeployed after failed verify
  f64 last_rto_us = 0.0;        ///< most recent recovery wall time
  f64 max_rto_us = 0.0;
  f64 total_rto_us = 0.0;  ///< summed downtime spent recovering
  i64 sram_bytes_wiped = 0;
  i64 sram_cells_restored = 0;
  i64 mram_bits_drifted = 0;
  i64 ecc_corrected = 0;  ///< drift fixed by the recovery scrub
  i64 ecc_refetched = 0;  ///< detected-uncorrectable, golden re-fetch
  i64 journal_replays = 0;
  i64 journal_records_replayed = 0;
  i64 journal_bytes_dropped = 0;  ///< torn tail bytes discarded
};

/// Continual-learning lane activity (see runtime/continual): training
/// progress, gate outcomes, modeled hardware cost, and the lane's
/// wall-time split between training and yielding to inference.
struct TrainingLaneCounters {
  bool active = false;  ///< any lane activity recorded
  i64 steps = 0;
  i64 samples = 0;  ///< labeled samples consumed
  i64 rounds = 0;   ///< train-evaluate-gate cycles
  f64 last_loss = 0.0;
  f64 baseline_accuracy = 0.0;  ///< holdout accuracy before adaptation
  f64 last_accuracy = 0.0;
  f64 best_accuracy = 0.0;
  i64 publishes = 0;         ///< gated images promoted via swap_model
  i64 publish_failures = 0;  ///< gate passed but the swap roll failed
  i64 rollbacks = 0;         ///< regressing candidates rolled back
  i64 train_pe_cycles = 0;   ///< modeled SRAM PE cycles spent training
  i64 slots_written = 0;     ///< PE weight slots rewritten by updates
  f64 busy_us = 0.0;  ///< lane wall time spent training
  f64 idle_us = 0.0;  ///< lane wall time yielded to inference
  std::vector<f64> loss_trajectory;      ///< per-round mean loss
  std::vector<f64> accuracy_trajectory;  ///< per-round holdout accuracy
  /// Fraction of lane wall time stolen from inference for training.
  f64 steal_ratio() const {
    const f64 total = busy_us + idle_us;
    return total > 0.0 ? busy_us / total : 0.0;
  }
};

/// MRAM endurance health (see device/wear.h): fleet-aggregated tracker
/// totals — words written per programming path, retry histogram, delta
/// savings, remap/degrade counts — plus workers retired to degraded
/// mode after their medium wore out.
struct WearCounters {
  bool active = false;  ///< wear tracking enabled on the engine
  WearTotals totals;    ///< summed over every worker's tracker
  i64 workers_degraded = 0;
};

/// One coherent view of the counters, taken under the lock.
struct MetricsSnapshot {
  i64 completed_requests = 0;
  i64 completed_rows = 0;  ///< images served
  i64 rejected_requests = 0;
  i64 shed_requests = 0;
  i64 failed_requests = 0;
  i64 timed_out_requests = 0;
  i64 batches = 0;
  // Resilience counters (self-healing path).
  i64 retries = 0;        ///< failed dispatches re-queued for retry
  i64 heals = 0;          ///< replica quarantine + redeploy cycles
  i64 scrubs = 0;         ///< periodic ECC scrub passes
  i64 ecc_corrected = 0;  ///< single-bit errors repaired by scrubs
  i64 ecc_detected_uncorrectable = 0;
  i64 ecc_silent = 0;
  i64 shadow_checks = 0;      ///< served batches re-run on modeled kernels
  i64 shadow_mismatches = 0;  ///< re-runs whose logits differed
  // Circuit-breaker transitions (overload control).
  i64 breaker_opens = 0;
  i64 breaker_half_opens = 0;
  i64 breaker_closes = 0;
  // Model-swap lifecycle.
  i64 swaps_attempted = 0;
  i64 swaps_completed = 0;
  i64 swaps_failed = 0;
  i64 swap_workers_swapped = 0;  ///< replicas promoted to the new image
  i64 swap_rollbacks = 0;        ///< replicas rolled back after a failure
  f64 elapsed_s = 0.0;  ///< since construction/reset
  f64 throughput_rps = 0.0;
  f64 throughput_images_per_s = 0.0;
  LatencyHistogram queue_latency;
  LatencyHistogram total_latency;
  std::array<ClassCounters, kPriorityClasses> classes;
  std::vector<i64> batch_rows_histogram;  ///< index = rows in batch
  /// Dispatched batches by why they closed, indexed by BatchClose; sums
  /// to `batches`.
  std::array<i64, kBatchCloseReasons> batch_close_reasons{};
  i64 queue_depth_samples = 0;
  f64 queue_depth_mean = 0.0;
  i64 queue_depth_max = 0;
  TrainingLaneCounters training_lane;
  RecoveryCounters recovery;
  WearCounters wear;
};

class ServingMetrics {
 public:
  ServingMetrics();

  void record_completed(Priority priority, i64 rows, f64 queue_us,
                        f64 total_us);
  void record_rejected(Priority priority);
  void record_shed(Priority priority, i64 rows);
  void record_failed(Priority priority, i64 rows);
  void record_timed_out(Priority priority, i64 rows);
  void record_retry();
  void record_heal();
  /// One scrub pass: corrected / detected-uncorrectable / silent totals.
  void record_scrub(i64 corrected, i64 detected_uncorrectable, i64 silent);
  /// One shadow-oracle check; `match` = modeled logits equal the served.
  void record_shadow(bool match);
  void record_batch(i64 rows, BatchClose reason);
  void sample_queue_depth(i64 depth);
  /// One breaker edge: closed->open, open->half-open, or ->closed.
  void record_breaker_open();
  void record_breaker_half_open();
  void record_breaker_close();
  /// One swap_model() outcome; `workers_swapped` replicas were promoted
  /// and `rollbacks` restored after a mid-roll failure.
  void record_swap(bool ok, i64 workers_swapped, i64 rollbacks);

  // Power-interruption lifecycle (recovery section).
  /// One request killed in flight (or in queue) by an outage.
  void record_power_loss(Priority priority);
  /// One power interruption and its array-level damage.
  void record_outage(i64 sram_bytes_wiped, i64 mram_bits_drifted);
  /// One successful restart(): recovery wall time and what it rebuilt.
  void record_recovery(f64 rto_us, i64 workers_warm, i64 workers_cold,
                       i64 sram_cells_restored, i64 ecc_corrected,
                       i64 ecc_refetched);
  /// One durable-journal replay: intact records recovered, torn tail
  /// bytes discarded.
  void record_journal_replay(i64 records, i64 bytes_dropped);

  // Continual-learning lane (training_lane section).
  /// Holdout accuracy of the served weights before any adaptation.
  void record_training_baseline(f64 accuracy);
  /// One hardware-in-the-loop SGD step over `samples` labeled samples.
  void record_training_step(f64 loss, i64 samples);
  /// One train-evaluate-gate round: mean step loss, holdout accuracy of
  /// the candidate, and the round's modeled hardware cost deltas.
  void record_training_round(f64 mean_loss, f64 holdout_accuracy,
                             i64 pe_cycles, i64 slots_written);
  /// A gate-passing candidate was handed to swap_model (`ok` = the roll
  /// promoted every worker).
  void record_training_publish(bool ok);
  /// A regressing candidate was rolled back (never promoted).
  void record_training_rollback();
  /// One lane duty-cycle slice: wall time trained vs. slept.
  void record_training_slice(f64 busy_us, f64 idle_us);

  // MRAM endurance (wear section).
  /// Replaces the aggregated tracker totals (the engine re-sums its
  /// per-worker trackers after every programming event).
  void update_wear(const WearTotals& totals);
  /// One worker permanently retired: its worn medium failed heal verify.
  void record_worker_degraded();

  MetricsSnapshot snapshot() const;

  /// Serializes a snapshot to JSON (schema documented in DESIGN.md).
  static std::string to_json(const MetricsSnapshot& snapshot);
  std::string to_json() const { return to_json(snapshot()); }

  /// The "wear" section alone, as a standalone JSON object — benches
  /// serialize it to assert same-seed byte-identical wear state and to
  /// upload lifetime artifacts.
  static std::string wear_to_json(const WearCounters& wear);

 private:
  mutable std::mutex mutex_;
  f64 start_us_ = 0.0;
  i64 completed_requests_ = 0;
  i64 completed_rows_ = 0;
  i64 rejected_requests_ = 0;
  i64 shed_requests_ = 0;
  i64 failed_requests_ = 0;
  i64 timed_out_requests_ = 0;
  i64 batches_ = 0;
  i64 retries_ = 0;
  i64 heals_ = 0;
  i64 scrubs_ = 0;
  i64 ecc_corrected_ = 0;
  i64 ecc_detected_uncorrectable_ = 0;
  i64 ecc_silent_ = 0;
  i64 shadow_checks_ = 0;
  i64 shadow_mismatches_ = 0;
  i64 breaker_opens_ = 0;
  i64 breaker_half_opens_ = 0;
  i64 breaker_closes_ = 0;
  i64 swaps_attempted_ = 0;
  i64 swaps_completed_ = 0;
  i64 swaps_failed_ = 0;
  i64 swap_workers_swapped_ = 0;
  i64 swap_rollbacks_ = 0;
  LatencyHistogram queue_latency_;
  LatencyHistogram total_latency_;
  std::array<ClassCounters, kPriorityClasses> classes_;
  std::vector<i64> batch_rows_histogram_;
  std::array<i64, kBatchCloseReasons> batch_close_reasons_{};
  i64 queue_depth_samples_ = 0;
  f64 queue_depth_sum_ = 0.0;
  i64 queue_depth_max_ = 0;
  TrainingLaneCounters lane_;
  RecoveryCounters recovery_;
  WearCounters wear_;
};

}  // namespace msh
