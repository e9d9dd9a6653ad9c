// Train-while-serve: a continual-learning lane that fine-tunes the Rep
// path + classifier of a *dedicated trainer model* on SRAM PEs while the
// ServingEngine keeps answering traffic from its own replicas, and
// publishes improved candidates through the zero-downtime swap path.
//
// Isolation model: the lane never touches the engine's serving model or
// replicas. At construction the trainer model mirrors the served weights
// and N:M masks (RepNetModel::copy_state_from) and a trainer-side
// executor replica is calibrated on the same data as the engine, so a
// published image is exactly what the engine would have deployed from
// the adapted weights — with the served sparsity pattern intact.
//
// One training step is hardware-in-the-loop (paper §4, Fig 6-2):
//
//   features = trainer_model.forward_features(x)     (software; frozen
//                                                     backbone + Rep path)
//   loss     = head.train_step(features, y, &e_x)    (SRAM PE forward,
//                                                     transposed-PE error
//                                                     prop eq. 1, digital
//                                                     grad eq. 2, update +
//                                                     redeploy eq. 3)
//   trainer_model.backward_features(e_x)             (Rep-path gradients
//                                                     from the propagated
//                                                     hardware error)
//   sgd.step()                                       (Rep params only)
//
// Every `steps_per_round` steps the lane evaluates a re-quantized
// candidate on the stream's holdout split and applies the gate:
//   improvement >= min_accuracy_gain  -> export image, swap_model()
//   regression  >  rollback_margin    -> restore last-good weights,
//                                        reset optimizer state
//   otherwise                         -> keep training, no publish
// A regressing candidate is therefore never promoted.
//
// Determinism: every decision is a pure function of (seed, stream seed,
// batch, steps_per_round) — sample order, poison noise, the gate, and
// the exported image bytes. Wall-clock only paces the lane (duty-cycle
// sleeps between rounds); it never feeds a decision, so two runs at the
// same seed publish bit-identical images regardless of scheduling.
#pragma once

#include <atomic>
#include <memory>
#include <thread>

#include "deploy/pim_trainer.h"
#include "nn/optimizer.h"
#include "runtime/continual/checkpoint.h"
#include "runtime/continual/task_stream.h"
#include "runtime/serving_engine.h"

namespace msh {

struct ContinualLearnerOptions {
  /// Seeds every lane-local RNG (head init, poison noise). The sample
  /// order comes from the TaskStream's own seed.
  u64 seed = 1;
  i64 batch = 16;           ///< samples per training step
  i64 steps_per_round = 8;  ///< steps between candidate evaluations
  /// Rounds run() executes before returning; 0 = until stop().
  i64 max_rounds = 0;
  // Rep-path SGD (software side).
  f32 rep_lr = 0.02f;
  f32 rep_momentum = 0.9f;
  f32 rep_weight_decay = 0.0f;
  /// Classifier-head learning rate (in-PIM trainer).
  f32 head_lr = 0.05f;
  /// Publish gate: holdout accuracy must beat the best published value
  /// by at least this margin.
  f64 min_accuracy_gain = 0.005;
  /// Rollback gate: a candidate this far *below* best restores the
  /// last-good weights and resets optimizer state.
  f64 rollback_margin = 0.05;
  i64 holdout_batch = 32;
  /// Fraction of lane wall time spent training; the remainder is slept
  /// between rounds, yielding the host to inference workers. 1.0 never
  /// sleeps. Pacing only — results are invariant to this knob.
  f64 duty_cycle = 1.0;
  /// Passed through to every publish's swap_model() roll.
  SwapOptions swap = {};
  /// Test hook: corrupt the Rep-path weights with seeded Gaussian noise
  /// after this round's training steps (0-indexed; -1 disables) — the
  /// gate must reject the candidate and roll it back.
  i64 poison_round = -1;
  f32 poison_stddev = 0.5f;
  /// Resume from a durable checkpoint instead of starting fresh — the
  /// power-loss recovery path (see runtime/recovery). Restores counters,
  /// gate state, the learnable params, the SGD momentum buffers, and
  /// skips the baseline holdout evaluation (the checkpointed value is
  /// authoritative). The caller must construct the TaskStream with the
  /// original seed; the learner fast-forwards it by samples_streamed so
  /// the sample sequence continues exactly where the crashed lane left
  /// off. Null starts a fresh lane.
  std::shared_ptr<const LearnerCheckpoint> resume;
};

class ContinualLearner {
 public:
  /// `trainer_model` must share the engine model's architecture; its
  /// weights are overwritten with a mirror of the served weights.
  /// `calibration` must be the dataset the engine was calibrated on, so
  /// published images carry the same activation scales the serving
  /// replicas use. The engine must outlive the learner.
  ContinualLearner(ServingEngine& engine, RepNetModel& trainer_model,
                   TaskStream stream, const Dataset& calibration,
                   ContinualLearnerOptions options = {});
  ~ContinualLearner();

  ContinualLearner(const ContinualLearner&) = delete;
  ContinualLearner& operator=(const ContinualLearner&) = delete;

  /// Launches the lane thread (no-op when already running).
  void start();
  /// Signals the lane to stop after its current round and joins it.
  void stop();

  /// One synchronous train-evaluate-gate round on the calling thread.
  /// For deterministic tests; do not mix with a running lane thread.
  void run_round();

  /// Snapshots the lane into a durable checkpoint (counters, gate state,
  /// params, momentum). `image_generation` stamps the durable image
  /// generation being served, so recovery can report lost rounds. Call
  /// between rounds (or after stop()); never while the lane thread runs.
  /// Note: a rollback after resume restores the *checkpointed* params —
  /// the last-good anchor re-bases to the resume point.
  LearnerCheckpoint checkpoint(u64 image_generation = 0);

  // Lane state, safe to read from any thread.
  i64 steps() const { return steps_.load(std::memory_order_relaxed); }
  i64 rounds() const { return rounds_.load(std::memory_order_relaxed); }
  i64 publishes() const {
    return publishes_.load(std::memory_order_relaxed);
  }
  i64 rollbacks() const {
    return rollbacks_.load(std::memory_order_relaxed);
  }
  f64 baseline_accuracy() const { return baseline_accuracy_; }
  f64 best_accuracy() const {
    return best_accuracy_.load(std::memory_order_relaxed);
  }
  f64 last_accuracy() const {
    return last_accuracy_.load(std::memory_order_relaxed);
  }

  /// The most recently published image (null before the first publish).
  /// Safe to read after stop() or between synchronous run_round() calls.
  const std::shared_ptr<const DeploymentImage>& last_published() const {
    return last_published_;
  }

  const TaskStream& stream() const { return stream_; }

 private:
  void run();
  f64 train_steps_once();  ///< one batch step; returns its loss
  void sync_head_to_model();
  void poison_rep_path();

  ServingEngine& engine_;
  RepNetModel& trainer_model_;
  TaskStream stream_;
  ContinualLearnerOptions options_;
  /// Trainer-side executor bound to trainer_model_: calibration source,
  /// candidate re-quantization (clone) and image export.
  std::unique_ptr<PimRepNetExecutor> trainer_exec_;
  /// Dedicated SRAM arrays for the head trainer. Built from
  /// `executor.core`, whose backend stays modeled while the engine's
  /// replicas serve raw: the head's modeled cycles are the lane's
  /// train_pe_cycles metric (DESIGN §5i).
  HybridCore head_core_;
  std::unique_ptr<PimLinearTrainer> head_;
  std::unique_ptr<Sgd> sgd_;
  Rng poison_rng_;
  i64 head_cycles_seen_ = 0;  ///< modeled_cycles() already reported
  f64 baseline_accuracy_ = 0.0;
  std::vector<Tensor> last_good_;  ///< learnable-param snapshot
  std::shared_ptr<const DeploymentImage> last_published_;

  std::atomic<i64> steps_{0};
  std::atomic<i64> rounds_{0};
  std::atomic<i64> publishes_{0};
  std::atomic<i64> rollbacks_{0};
  std::atomic<f64> best_accuracy_{0.0};
  std::atomic<f64> last_accuracy_{0.0};
  std::atomic<bool> stop_requested_{false};
  std::thread thread_;
  bool running_ = false;
};

}  // namespace msh
