// Full-model hardware deployment: a trained Rep-Net model executed
// entirely through the functional PE simulators must reproduce the
// software model's predictions up to INT8 quantization effects.
#include <gtest/gtest.h>

#include "deploy/pim_executor.h"
#include "repnet/trainer.h"
#include "workloads/task_suite.h"

namespace msh {
namespace {

TEST(SatisfiesNm, DetectsPattern) {
  Rng rng(1);
  Tensor w = Tensor::randn(Shape{16, 4}, rng);
  EXPECT_FALSE(satisfies_nm(w, kSparse1of4));  // dense random: no
  NmMask mask = select_nm_mask(w, kSparse1of4, GroupAxis::kRows);
  apply_mask(w, mask);
  EXPECT_TRUE(satisfies_nm(w, kSparse1of4));
  EXPECT_TRUE(satisfies_nm(w, NmConfig{2, 4}));  // looser pattern also ok
  EXPECT_TRUE(satisfies_nm(Tensor(Shape{16, 4}), kSparse1of4));  // zeros
}

TEST(SatisfiesNm, RejectsIndivisibleRows) {
  EXPECT_FALSE(satisfies_nm(Tensor(Shape{6, 2}), kSparse1of4));
}

TEST(PimMatmulLayer, DenseFallbackMatchesReference) {
  HybridCore core;
  Rng rng(2);
  Tensor w = Tensor::randn(Shape{5, 27}, rng);  // K=27: padding needed
  PimMatmulLayer layer(core, w, kSparse1of4, PeKind::kSram, 0.05f);
  EXPECT_FALSE(layer.deployed_sparse());

  Tensor x = Tensor::randn(Shape{3, 27}, rng, 0.0f, 1.0f);
  Tensor hw = layer.matmul(x);
  Tensor sw = matmul_tb(x, w);
  // INT8 in, INT8 weights: expect a few percent relative error.
  EXPECT_LT(max_abs_diff(hw, sw), 0.05f * std::max(1.0f, sw.abs_max()));
}

TEST(PimMatmulLayer, SparseDeploymentUsesRequestedPattern) {
  HybridCore core;
  Rng rng(3);
  Tensor w = Tensor::randn(Shape{8, 64}, rng);
  NmMask mask = select_nm_mask(w, kSparse1of4, GroupAxis::kCols);
  apply_mask(w, mask);
  PimMatmulLayer layer(core, w, kSparse1of4, PeKind::kMram, 0.05f);
  EXPECT_TRUE(layer.deployed_sparse());
  EXPECT_EQ(layer.packed_config(), kSparse1of4);
  // Compressed storage: a quarter of the slots.
  EXPECT_EQ(layer.stored_slots(), 64 / 4 * 8);
}

class ExecutorTest : public ::testing::Test {
 protected:
  static BackboneConfig tiny_backbone() {
    BackboneConfig cfg;
    cfg.stem_channels = 8;
    cfg.stage_channels = {8, 16};
    cfg.blocks_per_stage = {1, 1};
    cfg.stage_strides = {1, 2};
    return cfg;
  }

  static SyntheticSpec tiny_task() {
    SyntheticSpec spec;
    spec.name = "executor-task";
    spec.classes = 4;
    spec.train_per_class = 16;
    spec.test_per_class = 8;
    spec.image_size = 12;
    spec.noise = 0.2f;
    spec.seed = 5;
    return spec;
  }

  void SetUp() override {
    rng_ = std::make_unique<Rng>(17);
    data_ = make_synthetic_dataset(tiny_task());
    model_ = std::make_unique<RepNetModel>(
        tiny_backbone(), RepNetConfig{.bottleneck_divisor = 8,
                                      .min_bottleneck = 8},
        4, *rng_);
    BackboneClassifier head(model_->backbone(), 4, *rng_);
    pretrain_backbone(head, data_,
                      TrainOptions{.epochs = 4, .batch = 16, .lr = 0.05f},
                      *rng_);
    ContinualOptions options;
    options.finetune = {.epochs = 4, .batch = 16, .lr = 0.04f};
    options.sparse = true;
    options.nm = kSparse1of4;
    outcome_ = learn_task(*model_, data_, options, *rng_);
  }

  std::unique_ptr<Rng> rng_;
  TrainTestSplit data_;
  std::unique_ptr<RepNetModel> model_;
  TaskOutcome outcome_;
};

TEST_F(ExecutorTest, HardwareAccuracyTracksSoftware) {
  PimRepNetExecutor executor(*model_, data_.train);
  const f64 hw_acc = executor.evaluate(data_.test);
  const f64 sw_acc = evaluate_repnet(*model_, data_.test);
  // Hardware runs INT8 weights AND activations; allow a modest gap.
  EXPECT_GT(hw_acc, sw_acc - 0.15);
  EXPECT_GT(hw_acc, 0.5);  // far above 0.25 chance
}

TEST_F(ExecutorTest, LogitsCloseToSoftwarePerSample) {
  PimRepNetExecutor executor(*model_, data_.train);
  const Tensor images = data_.test.batch_images(0, 4);
  const Tensor hw = executor.forward(images);
  const Tensor sw = model_->forward(images, /*training=*/false);
  ASSERT_EQ(hw.shape(), sw.shape());
  const f32 mag = std::max(1.0f, sw.abs_max());
  EXPECT_LT(max_abs_diff(hw, sw), 0.25f * mag);
}

TEST_F(ExecutorTest, EveryConvDeployed) {
  PimRepNetExecutor executor(*model_, data_.train);
  // stem 1 + stage0 (conv1, conv2) + stage1 (conv1, conv2, proj) +
  // 2 reps x 2 convs = 10.
  EXPECT_EQ(executor.deployed_convs(), 10);
}

TEST_F(ExecutorTest, SparseDeploymentsCoverRepPath) {
  PimRepNetExecutor executor(*model_, data_.train);
  // Rep-path convs trained with the 1:4 mask deploy sparse; the unpruned
  // backbone falls back to dense packing.
  EXPECT_GE(executor.sparse_deployments(), 4);
}

TEST_F(ExecutorTest, BothPeTypesDoWork) {
  // PE events are modeled-only: the raw default reports none.
  PimExecutorOptions options;
  options.backend = KernelBackend::kModeled;
  PimRepNetExecutor executor(*model_, data_.train, options);
  executor.forward(data_.test.batch_images(0, 2));
  const PeEventCounts events = executor.core().pe_events();
  EXPECT_GT(events.mram_row_reads, 0);      // backbone on MRAM
  EXPECT_GT(events.sram_array_cycles, 0);   // rep path on SRAM
}

TEST_F(ExecutorTest, CloneBitIdenticalAndIndependent) {
  PimRepNetExecutor executor(*model_, data_.train);
  const Tensor images = data_.test.batch_images(0, 4);
  const Tensor original = executor.forward(images);

  auto copy = executor.clone();
  EXPECT_EQ(max_abs_diff(copy->forward(images), original), 0.0f);

  // Clones own their arrays: corrupting the original leaves the copy
  // serving golden logits (the serving runtime's redeploy guarantee).
  Rng rng(3);
  const FaultStats stats =
      executor.inject_nvm_faults(MtjFaultModel::symmetric(1e-2), rng);
  EXPECT_GT(stats.bits_flipped, 0);
  EXPECT_EQ(max_abs_diff(copy->forward(images), original), 0.0f);
}

TEST_F(ExecutorTest, UnprotectedScrubOnlyCountsSilentCorruption) {
  PimRepNetExecutor executor(*model_, data_.train);
  ASSERT_EQ(executor.ecc_mode(), EccMode::kNone);
  Rng rng(21);
  executor.inject_nvm_faults(MtjFaultModel::symmetric(1e-3), rng);
  EccStats totals;
  for (const auto& report : executor.scrub()) {
    totals += report.weights;
    totals += report.indices;
  }
  // No code deployed: nothing corrected or detected, everything silent.
  EXPECT_EQ(totals.corrected, 0);
  EXPECT_EQ(totals.detected_uncorrectable, 0);
  EXPECT_GT(totals.silent, 0);
}

TEST_F(ExecutorTest, SecDedScrubRestoresBitIdenticalLogits) {
  PimExecutorOptions options;
  options.ecc = EccMode::kSecDed;
  PimRepNetExecutor executor(*model_, data_.train, options);
  const Tensor images = data_.test.batch_images(0, 8);
  const Tensor clean = executor.forward(images);

  // BER 1e-4 is the single-error regime for 13-cell weight codewords;
  // the seed is pinned, so the campaign is reproducible.
  Rng rng(99);
  const FaultStats stats =
      executor.inject_nvm_faults(MtjFaultModel::symmetric(1e-4), rng);
  ASSERT_GT(stats.bits_flipped, 0);

  // SEC-DED corrects weight words in place; parity-detected index cells
  // re-fetch from the golden model image.
  EccStats weights, indices;
  for (const auto& report :
       executor.scrub(/*repair_detected_from_golden=*/true)) {
    weights += report.weights;
    indices += report.indices;
  }
  EXPECT_GT(weights.corrected + indices.detected_uncorrectable, 0);
  EXPECT_EQ(weights.silent, 0);
  EXPECT_EQ(indices.silent, 0);

  // Bit-identical to the fault-free run, and a second scrub is clean.
  EXPECT_EQ(max_abs_diff(executor.forward(images), clean), 0.0f);
  for (const auto& report : executor.scrub()) EXPECT_TRUE(report.clean());
}

TEST_F(ExecutorTest, ParityDetectsButCannotCorrect) {
  PimExecutorOptions options;
  options.ecc = EccMode::kParity;
  PimRepNetExecutor executor(*model_, data_.train, options);
  const Tensor images = data_.test.batch_images(0, 8);
  const Tensor clean = executor.forward(images);

  Rng rng(31);
  executor.inject_nvm_faults(MtjFaultModel::symmetric(1e-4), rng);
  EccStats first;
  for (const auto& report : executor.scrub()) {
    first += report.weights;
    first += report.indices;
  }
  // Detect-only: hits are flagged, never repaired by the code itself.
  EXPECT_GT(first.detected_uncorrectable, 0);
  EXPECT_EQ(first.corrected, 0);

  // Re-fetching flagged words from the golden image restores the
  // deployment (single-error regime: no even-flip words to miss).
  EccStats second;
  for (const auto& report :
       executor.scrub(/*repair_detected_from_golden=*/true)) {
    second += report.weights;
    second += report.indices;
  }
  EXPECT_EQ(second.silent, 0);
  EXPECT_EQ(max_abs_diff(executor.forward(images), clean), 0.0f);
}

TEST_F(ExecutorTest, PrunedBackboneDeploysSparse) {
  // PTQ-prune the backbone, recalibrate, redeploy: backbone convs with
  // compatible K now pack under 1:4.
  SparsityPlan plan;
  plan.prune(model_->backbone_params(), kSparse1of4,
             /*use_gradient_saliency=*/false);
  BackboneClassifier head(model_->backbone(), 4, *rng_);
  recalibrate_batchnorm(head, data_.train, 6, 16, *rng_);

  PimRepNetExecutor executor(*model_, data_.train);
  // All 6 backbone convs (K = 27 stem excluded? stem K=27 not divisible
  // by 4 -> stays dense) plus 4 rep convs and classifier.
  EXPECT_GE(executor.sparse_deployments(), 8);
}

}  // namespace
}  // namespace msh
