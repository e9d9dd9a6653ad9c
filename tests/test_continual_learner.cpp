// Continual-learning lane: TaskStream determinism, adaptation that
// improves holdout accuracy and publishes through swap_model, the
// regression gate (a poisoned candidate is rolled back and never
// promoted), bit-identical published images at a fixed seed, and the
// training_lane metrics section.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

#include "repnet/sparsify.h"
#include "runtime/continual/continual_learner.h"
#include "workloads/task_suite.h"

namespace msh {
namespace {

SyntheticSpec served_spec() {
  SyntheticSpec spec;
  spec.name = "lane-served";
  spec.classes = 4;
  spec.train_per_class = 12;
  spec.test_per_class = 6;
  spec.image_size = 12;
  spec.noise = 0.2f;
  spec.seed = 31;
  return spec;
}

SyntheticSpec adaptation_spec() {
  SyntheticSpec spec = adaptation_task_spec(served_spec(), 404);
  spec.train_per_class = 20;
  spec.test_per_class = 10;
  return spec;
}

std::unique_ptr<RepNetModel> make_model(u64 seed) {
  BackboneConfig backbone;
  backbone.stem_channels = 8;
  backbone.stage_channels = {8, 16};
  backbone.blocks_per_stage = {1, 1};
  backbone.stage_strides = {1, 2};
  Rng rng(seed);
  auto model = std::make_unique<RepNetModel>(
      backbone, RepNetConfig{.bottleneck_divisor = 8, .min_bottleneck = 8},
      4, rng);
  // On-device learning setup: the backbone is frozen (paper Fig 6), only
  // the Rep path + classifier adapt.
  model->backbone().set_trainable(false);
  return model;
}

ContinualLearnerOptions lane_options() {
  ContinualLearnerOptions options;
  options.seed = 7;
  options.batch = 8;
  options.steps_per_round = 6;
  options.rep_lr = 0.02f;
  options.head_lr = 0.08f;
  options.min_accuracy_gain = 0.01;
  options.rollback_margin = 0.05;
  options.holdout_batch = 20;
  return options;
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(TaskStream, DeterministicOrderAndEpochWraparound) {
  auto make = [] { return TaskStream(make_synthetic_dataset(adaptation_spec()), 5); };
  TaskStream a = make();
  TaskStream b = make();
  const i64 epoch = a.train_size();

  Tensor xa, xb;
  std::vector<i32> ya, yb;
  // Cross an epoch boundary mid-batch: rows keep flowing, reshuffled.
  const i64 rows = epoch - 3;
  a.next_batch(rows, &xa, &ya);
  b.next_batch(rows, &xb, &yb);
  EXPECT_EQ(ya, yb);
  EXPECT_EQ(max_abs_diff(xa, xb), 0.0f);

  a.next_batch(8, &xa, &ya);
  b.next_batch(8, &xb, &yb);
  EXPECT_EQ(ya, yb);
  EXPECT_EQ(max_abs_diff(xa, xb), 0.0f);
  EXPECT_EQ(a.epochs_completed(), 1);
  EXPECT_EQ(a.samples_streamed(), epoch + 5);
}

class ContinualLearnerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = make_synthetic_dataset(served_spec());
    model_ = make_model(17);
    trainer_model_ = make_model(99);  // values overwritten by the mirror
  }

  std::unique_ptr<ServingEngine> make_engine() {
    ServingEngineOptions options;
    options.workers = 1;
    options.queue_capacity = 16;
    return std::make_unique<ServingEngine>(*model_, data_.train, options);
  }

  TrainTestSplit data_;
  std::unique_ptr<RepNetModel> model_;
  std::unique_ptr<RepNetModel> trainer_model_;
};

TEST_F(ContinualLearnerTest, AdaptationImprovesAndPublishesGatedImages) {
  auto engine = make_engine();
  ContinualLearner learner(*engine, *trainer_model_,
                           TaskStream(make_synthetic_dataset(adaptation_spec()), 5),
                           data_.train, lane_options());

  for (i64 r = 0; r < 10; ++r) learner.run_round();

  EXPECT_EQ(learner.rounds(), 10);
  EXPECT_EQ(learner.steps(), 60);
  // The drifted task starts near chance for the served weights; the lane
  // must adapt past the publish gate at least once.
  EXPECT_GT(learner.best_accuracy(),
            learner.baseline_accuracy() + 0.05);
  EXPECT_GE(learner.publishes(), 1);
  ASSERT_NE(learner.last_published(), nullptr);

  const MetricsSnapshot snapshot = engine->metrics().snapshot();
  // Every publish went through the engine's zero-downtime swap path.
  EXPECT_EQ(snapshot.swaps_completed, learner.publishes());
  const TrainingLaneCounters& lane = snapshot.training_lane;
  EXPECT_TRUE(lane.active);
  EXPECT_EQ(lane.steps, 60);
  EXPECT_EQ(lane.samples, 60 * 8);
  EXPECT_EQ(lane.rounds, 10);
  EXPECT_EQ(lane.publishes, learner.publishes());
  EXPECT_EQ(static_cast<i64>(lane.accuracy_trajectory.size()), 10);
  EXPECT_EQ(static_cast<i64>(lane.loss_trajectory.size()), 10);
  EXPECT_DOUBLE_EQ(lane.baseline_accuracy, learner.baseline_accuracy());
  EXPECT_GT(lane.train_pe_cycles, 0);
  EXPECT_GT(lane.slots_written, 0);

  const std::string json = engine->metrics_json();
  EXPECT_NE(json.find("\"training_lane\":{\"active\":true"),
            std::string::npos);
  EXPECT_NE(json.find("\"accuracy_trajectory\":["), std::string::npos);
  engine->shutdown();
}

TEST_F(ContinualLearnerTest, PrunedEnginePublishesWithoutFailedSwaps) {
  // The served Rep convs are 1:4-pruned, so they deploy sparse. The
  // mirrored trainer model must keep that pattern through SGD: a
  // candidate whose pruned zeros refilled would deploy dense 4:4 and
  // fail every publish's swap against the served 1:4 layers.
  SparsityPlan plan;
  ASSERT_GT(plan.prune(model_->rep_conv_params(), kSparse1of4,
                       /*use_gradient_saliency=*/false),
            0);
  auto engine = make_engine();
  ContinualLearner learner(*engine, *trainer_model_,
                           TaskStream(make_synthetic_dataset(adaptation_spec()), 5),
                           data_.train, lane_options());

  for (i64 r = 0; r < 10; ++r) learner.run_round();

  const MetricsSnapshot snapshot = engine->metrics().snapshot();
  EXPECT_GE(learner.publishes(), 1);
  EXPECT_EQ(snapshot.swaps_failed, 0);
  EXPECT_EQ(snapshot.training_lane.publish_failures, 0);
  EXPECT_EQ(snapshot.swaps_completed, learner.publishes());
  engine->shutdown();
}

TEST_F(ContinualLearnerTest, PoisonedCandidateRolledBackNeverPromoted) {
  auto engine = make_engine();
  ContinualLearnerOptions options = lane_options();
  options.poison_round = 2;
  options.poison_stddev = 1.0f;
  ContinualLearner learner(*engine, *trainer_model_,
                           TaskStream(make_synthetic_dataset(adaptation_spec()), 5),
                           data_.train, options);

  learner.run_round();
  learner.run_round();
  const i64 swaps_before =
      engine->metrics().snapshot().swaps_completed;
  const f64 best_before = learner.best_accuracy();

  learner.run_round();  // the poisoned round

  // The wrecked candidate was evaluated, rejected, and rolled back — and
  // no image was published for it.
  EXPECT_EQ(engine->metrics().snapshot().swaps_completed, swaps_before);
  EXPECT_EQ(learner.rollbacks(), 1);
  EXPECT_LT(learner.last_accuracy(), best_before);
  EXPECT_DOUBLE_EQ(learner.best_accuracy(), best_before);

  // Recovery: the restored weights keep training without the damage.
  learner.run_round();
  EXPECT_GE(learner.last_accuracy(),
            best_before - options.rollback_margin);

  const TrainingLaneCounters& lane =
      engine->metrics().snapshot().training_lane;
  EXPECT_EQ(lane.rollbacks, 1);
  engine->shutdown();
}

TEST_F(ContinualLearnerTest, PublishedImagesBitIdenticalAtFixedSeed) {
  auto publish_once = [&](const std::string& path) {
    auto model = make_model(17);
    auto trainer = make_model(99);
    ServingEngineOptions engine_options;
    engine_options.workers = 1;
    ServingEngine engine(*model, data_.train, engine_options);
    ContinualLearner learner(
        engine, *trainer,
        TaskStream(make_synthetic_dataset(adaptation_spec()), 5),
        data_.train, lane_options());
    for (i64 r = 0; r < 8; ++r) learner.run_round();
    if (learner.last_published() == nullptr) return false;
    learner.last_published()->save(path);
    engine.shutdown();
    return true;
  };

  const std::string a = testing::TempDir() + "lane_image_a.bin";
  const std::string b = testing::TempDir() + "lane_image_b.bin";
  ASSERT_TRUE(publish_once(a));
  ASSERT_TRUE(publish_once(b));
  const std::string bytes_a = file_bytes(a);
  ASSERT_FALSE(bytes_a.empty());
  // Same seeds, fresh engine + models + stream: the published container
  // must be byte-for-byte identical, time-slicing notwithstanding.
  EXPECT_EQ(bytes_a, file_bytes(b));
}

TEST_F(ContinualLearnerTest, CheckpointResumeMatchesUninterruptedRun) {
  // The recovery-determinism contract (see runtime/recovery): a lane
  // that crashes after round K and resumes from its checkpoint must end
  // round N in exactly the state of a lane that never crashed — same
  // counters, same gate state, same adapted params, same momentum.
  auto fresh_stream = [&] {
    return TaskStream(make_synthetic_dataset(adaptation_spec()), 5);
  };
  auto make_learner_state = [&](ContinualLearnerOptions options,
                                i64 rounds) {
    auto model = make_model(17);
    auto trainer = make_model(99);
    ServingEngineOptions engine_options;
    engine_options.workers = 1;
    ServingEngine engine(*model, data_.train, engine_options);
    ContinualLearner learner(engine, *trainer, fresh_stream(), data_.train,
                             options);
    for (i64 r = 0; r < rounds; ++r) learner.run_round();
    auto checkpoint = learner.checkpoint(/*image_generation=*/3);
    engine.shutdown();
    return checkpoint.serialize();
  };

  // Reference: six uninterrupted rounds.
  const std::string uninterrupted = make_learner_state(lane_options(), 6);

  // Interrupted: three rounds, checkpoint (what DurableState journaled
  // before the outage), then a *fresh* engine + models + stream resumed
  // from that checkpoint for the remaining three.
  const std::string mid_blob = make_learner_state(lane_options(), 3);
  ContinualLearnerOptions resumed_options = lane_options();
  resumed_options.resume = std::make_shared<LearnerCheckpoint>(
      LearnerCheckpoint::deserialize(mid_blob, "resume test"));
  const std::string resumed = make_learner_state(resumed_options, 3);

  EXPECT_EQ(uninterrupted, resumed);
}

TEST_F(ContinualLearnerTest, LaneThreadRunsUnderLiveTrafficAndStops) {
  auto engine = make_engine();
  ContinualLearnerOptions options = lane_options();
  options.max_rounds = 3;
  options.duty_cycle = 0.8;
  ContinualLearner learner(*engine, *trainer_model_,
                           TaskStream(make_synthetic_dataset(adaptation_spec()), 5),
                           data_.train, options);
  learner.start();

  // Keep inference traffic flowing while the lane trains.
  i64 ok = 0;
  for (i64 i = 0; i < 40; ++i) {
    auto future = engine->submit(data_.test.batch_images(i % 8, 2));
    const InferenceResponse response = future.get();
    if (response.status == RequestStatus::kOk) ++ok;
  }
  // The lane self-terminates at max_rounds; wait for it, then join.
  while (learner.rounds() < 3)
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  learner.stop();

  EXPECT_EQ(ok, 40);  // no request failed because the lane was training
  EXPECT_EQ(learner.rounds(), 3);
  const TrainingLaneCounters& lane =
      engine->metrics().snapshot().training_lane;
  EXPECT_EQ(lane.rounds, 3);
  EXPECT_GT(lane.busy_us, 0.0);
  EXPECT_GT(lane.idle_us, 0.0);  // duty-cycle slept between rounds
  EXPECT_GT(lane.steal_ratio(), 0.0);
  EXPECT_LT(lane.steal_ratio(), 1.0);
  engine->shutdown();
}

}  // namespace
}  // namespace msh
