#include "runtime/continual/continual_learner.h"

#include <chrono>

#include "common/stopwatch.h"
#include "repnet/trainer.h"

namespace msh {

ContinualLearner::ContinualLearner(ServingEngine& engine,
                                   RepNetModel& trainer_model,
                                   TaskStream stream,
                                   const Dataset& calibration,
                                   ContinualLearnerOptions options)
    : engine_(engine),
      trainer_model_(trainer_model),
      stream_(std::move(stream)),
      options_(options),
      head_core_(engine.options().executor.core),
      poison_rng_(options.seed ^ 0x9e3779b97f4a7c15ull) {
  MSH_REQUIRE(options_.batch > 0 && options_.steps_per_round > 0);
  MSH_REQUIRE(&trainer_model_ != &engine_.model());
  MSH_REQUIRE(stream_.classes() ==
              trainer_model_.classifier().out_features());

  // Mirror the served weights, then deploy the trainer-side executor
  // with the engine's options and calibration data so its activation
  // scales — and therefore every exported image — match what the engine
  // would produce from the same weights. On resume the calibration walk
  // still runs on the *mirrored* (pre-adaptation) weights, exactly as
  // the crashed lane's did, so the recorded ranges — and every future
  // exported image — stay bit-identical to an uninterrupted run; the
  // checkpointed params are restored only afterwards.
  trainer_model_.copy_state_from(engine_.model());
  trainer_exec_ = std::make_unique<PimRepNetExecutor>(
      trainer_model_, calibration, engine_.options().executor);
  if (options_.resume)
    restore_params(trainer_model_.learnable_params(),
                   options_.resume->params);

  // In-PIM classifier head, warm-started from the served classifier (on
  // resume: the checkpointed classifier, restored just above — the
  // crashed head's exact state, since every round ends head-synced).
  head_ = std::make_unique<PimLinearTrainer>(
      head_core_, trainer_model_.feature_dim(), stream_.classes(),
      PimTrainerOptions{
          .lr = options_.head_lr, .nm = std::nullopt, .seed = options_.seed});
  head_->set_state(trainer_model_.classifier().weight().value,
                   trainer_model_.classifier().bias().value);
  head_cycles_seen_ = head_->modeled_cycles();

  sgd_ = std::make_unique<Sgd>(
      trainer_model_.rep_params(),
      SgdOptions{.lr = options_.rep_lr,
                 .momentum = options_.rep_momentum,
                 .weight_decay = options_.rep_weight_decay});

  if (options_.resume) {
    const LearnerCheckpoint& cp = *options_.resume;
    sgd_->restore_velocity(cp.velocity);
    // Fast-forward the stream so the sample (and reshuffle) sequence
    // continues exactly where the crashed lane left off.
    stream_.skip(cp.samples_streamed);
    steps_.store(cp.steps, std::memory_order_relaxed);
    rounds_.store(cp.rounds, std::memory_order_relaxed);
    publishes_.store(cp.publishes, std::memory_order_relaxed);
    rollbacks_.store(cp.rollbacks, std::memory_order_relaxed);
    // Gate state is checkpointed, not re-measured: re-evaluating the
    // baseline here would double-count hardware time and could drift
    // the gate's bar across a crash.
    baseline_accuracy_ = cp.baseline_accuracy;
    best_accuracy_.store(cp.best_accuracy, std::memory_order_relaxed);
    last_accuracy_.store(cp.last_accuracy, std::memory_order_relaxed);
  } else {
    // Pre-adaptation holdout accuracy of the (quantized) served weights:
    // the gate's starting bar and the bench's improvement reference.
    baseline_accuracy_ = trainer_exec_->clone()->evaluate(
        stream_.holdout(), options_.holdout_batch);
    best_accuracy_.store(baseline_accuracy_, std::memory_order_relaxed);
    last_accuracy_.store(baseline_accuracy_, std::memory_order_relaxed);
    engine_.metrics().record_training_baseline(baseline_accuracy_);
  }
  last_good_ = snapshot_params(trainer_model_.learnable_params());
}

ContinualLearner::~ContinualLearner() { stop(); }

void ContinualLearner::start() {
  if (running_) return;
  stop_requested_.store(false, std::memory_order_release);
  thread_ = std::thread(&ContinualLearner::run, this);
  running_ = true;
}

void ContinualLearner::stop() {
  stop_requested_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  running_ = false;
}

void ContinualLearner::run() {
  while (!stop_requested_.load(std::memory_order_acquire)) {
    if (options_.max_rounds > 0 &&
        rounds_.load(std::memory_order_relaxed) >= options_.max_rounds)
      break;
    const f64 t0 = monotonic_now_us();
    run_round();
    const f64 busy = monotonic_now_us() - t0;
    f64 idle = 0.0;
    if (options_.duty_cycle > 0.0 && options_.duty_cycle < 1.0) {
      // Sleep long enough that training occupies `duty_cycle` of the
      // lane's wall time, in small slices so stop() stays responsive.
      idle = busy * (1.0 - options_.duty_cycle) / options_.duty_cycle;
      const f64 until = monotonic_now_us() + idle;
      while (!stop_requested_.load(std::memory_order_acquire) &&
             monotonic_now_us() < until) {
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    }
    engine_.metrics().record_training_slice(busy, idle);
  }
}

f64 ContinualLearner::train_steps_once() {
  Tensor x;
  std::vector<i32> y;
  stream_.next_batch(options_.batch, &x, &y);

  // Software forward through frozen backbone + Rep path, hardware head
  // step (forward, error propagation, update, redeploy), then Rep-path
  // backward from the error the transposed PE handed back (eq. 1).
  Tensor features = trainer_model_.forward_features(x, /*training=*/true);
  Tensor propagated;
  const f64 loss = head_->train_step(features, y, &propagated);
  trainer_model_.backward_features(propagated);
  sgd_->step();

  steps_.fetch_add(1, std::memory_order_relaxed);
  engine_.metrics().record_training_step(loss, options_.batch);
  return loss;
}

void ContinualLearner::sync_head_to_model() {
  trainer_model_.classifier().weight().value = head_->weights();
  trainer_model_.classifier().bias().value = head_->bias();
}

void ContinualLearner::poison_rep_path() {
  for (Param* p : trainer_model_.rep_params()) {
    p->value += Tensor::randn(p->value.shape(), poison_rng_, 0.0f,
                              options_.poison_stddev);
  }
}

void ContinualLearner::run_round() {
  f64 loss_sum = 0.0;
  for (i64 s = 0; s < options_.steps_per_round; ++s)
    loss_sum += train_steps_once();

  const i64 round = rounds_.load(std::memory_order_relaxed);
  if (round == options_.poison_round) poison_rep_path();
  sync_head_to_model();

  // Gate on the exact artifact a publish would ship: a re-quantized
  // candidate replica, evaluated on the held-out split in hardware.
  auto candidate = trainer_exec_->clone();
  const f64 acc =
      candidate->evaluate(stream_.holdout(), options_.holdout_batch);
  last_accuracy_.store(acc, std::memory_order_relaxed);

  const i64 cycles = head_->modeled_cycles() - head_cycles_seen_;
  head_cycles_seen_ = head_->modeled_cycles();
  engine_.metrics().record_training_round(
      loss_sum / static_cast<f64>(options_.steps_per_round), acc, cycles,
      head_->slots_rewritten_per_step() * options_.steps_per_round);

  const f64 best = best_accuracy_.load(std::memory_order_relaxed);
  if (acc >= best + options_.min_accuracy_gain) {
    // Publish. Lane state advances on the gate decision alone (a pure
    // function of the seeded training history), never on swap timing,
    // so the published-image sequence is reproducible bit-for-bit.
    auto image =
        std::make_shared<DeploymentImage>(candidate->export_image());
    best_accuracy_.store(acc, std::memory_order_relaxed);
    last_good_ = snapshot_params(trainer_model_.learnable_params());
    last_published_ = image;
    // Lane publishes carry their own wear attribution: on a worn medium
    // the ledger must show whether deploys or the publish cadence ate
    // the endurance budget.
    SwapOptions swap = options_.swap;
    swap.wear_path = WearPath::kPublish;
    const bool ok = engine_.swap_model(image, swap);
    if (ok) publishes_.fetch_add(1, std::memory_order_relaxed);
    engine_.metrics().record_training_publish(ok);
  } else if (acc < best - options_.rollback_margin) {
    // Regression: restore the last-good weights (the regressing
    // candidate is never promoted), resync the in-PIM head, and drop
    // stale momentum.
    restore_params(trainer_model_.learnable_params(), last_good_);
    head_->set_state(trainer_model_.classifier().weight().value,
                     trainer_model_.classifier().bias().value);
    sgd_ = std::make_unique<Sgd>(
        trainer_model_.rep_params(),
        SgdOptions{.lr = options_.rep_lr,
                   .momentum = options_.rep_momentum,
                   .weight_decay = options_.rep_weight_decay});
    rollbacks_.fetch_add(1, std::memory_order_relaxed);
    engine_.metrics().record_training_rollback();
  }
  rounds_.fetch_add(1, std::memory_order_relaxed);
}

LearnerCheckpoint ContinualLearner::checkpoint(u64 image_generation) {
  LearnerCheckpoint cp;
  cp.rounds = rounds_.load(std::memory_order_relaxed);
  cp.steps = steps_.load(std::memory_order_relaxed);
  cp.samples_streamed = stream_.samples_streamed();
  cp.publishes = publishes_.load(std::memory_order_relaxed);
  cp.rollbacks = rollbacks_.load(std::memory_order_relaxed);
  cp.baseline_accuracy = baseline_accuracy_;
  cp.best_accuracy = best_accuracy_.load(std::memory_order_relaxed);
  cp.last_accuracy = last_accuracy_.load(std::memory_order_relaxed);
  cp.image_generation = image_generation;
  cp.params = snapshot_params(trainer_model_.learnable_params());
  cp.velocity = sgd_->velocity_snapshot();
  return cp;
}

}  // namespace msh
