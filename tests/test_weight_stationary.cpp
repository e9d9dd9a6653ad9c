// The raw backend's weight-stationary kernels (DESIGN §5i): every cell
// write must invalidate the resident packed weights, a clean deployment
// is never repacked, and the direct conv equals the modeled gather walk
// (and the im2col matmul it replaced) over a grid of conv geometries.
// Every comparison is byte equality.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <string>
#include <tuple>

#include "kernels/arena.h"
#include "repnet/sparsify.h"
#include "runtime/serving_engine.h"
#include "sparse/nm_mask.h"
#include "workloads/dataset.h"

#if MSH_ARENA_POISONS
#include <sanitizer/asan_interface.h>
#endif

namespace msh {
namespace {

bool same_bytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(f32) * static_cast<size_t>(a.numel())) == 0;
}

BackboneConfig small_backbone() {
  BackboneConfig cfg;
  cfg.stem_channels = 8;
  cfg.stage_channels = {8, 16};
  cfg.blocks_per_stage = {1, 1};
  cfg.stage_strides = {1, 2};
  return cfg;
}

SyntheticSpec small_task() {
  SyntheticSpec spec;
  spec.name = "weight-stationary";
  spec.classes = 4;
  spec.train_per_class = 8;
  spec.test_per_class = 4;
  spec.image_size = 12;
  spec.seed = 5;
  return spec;
}

// ----- invalidation: every mutator, raw vs modeled on the same cells ---

class PackInvalidationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = make_synthetic_dataset(small_task());
    Rng rng(29);
    model_ = std::make_unique<RepNetModel>(
        small_backbone(),
        RepNetConfig{.bottleneck_divisor = 8, .min_bottleneck = 8},
        small_task().classes, rng);
    // Sparse 1:4 deployments, as the paper's pruned backbone.
    SparsityPlan backbone_plan, rep_plan;
    backbone_plan.prune(model_->backbone_params(), kSparse1of4, false);
    rep_plan.prune(model_->rep_conv_params(), kSparse1of4, false);
    images_ = data_.test.batch_images(0, 5);
  }

  std::unique_ptr<PimRepNetExecutor> raw_executor(
      EccMode ecc, std::shared_ptr<MramWearTracker> wear = nullptr) {
    PimExecutorOptions options;
    options.backend = KernelBackend::kRaw;
    options.ecc = ecc;
    options.wear = std::move(wear);
    options.calibration_batch = 8;
    options.calibration_batches = 1;
    return std::make_unique<PimRepNetExecutor>(*model_, data_.train, options);
  }

  /// A raw forward after a mutation must equal the modeled walk over the
  /// same live cells, and differ from `before` (the logits of the last
  /// raw forward, whose packed weights a missed invalidation would
  /// reuse) — otherwise the mutation proved nothing.
  void expect_tracks_cells(PimRepNetExecutor& exec, const Tensor& before,
                           const std::string& what) {
    const Tensor raw = exec.forward(images_);
    const Tensor modeled = exec.forward_with(KernelBackend::kModeled, images_);
    EXPECT_TRUE(same_bytes(raw, modeled))
        << what << ": raw forward diverged from the modeled walk";
    EXPECT_FALSE(same_bytes(raw, before))
        << what << ": the mutation did not change the logits";
  }

  TrainTestSplit data_;
  std::unique_ptr<RepNetModel> model_;
  Tensor images_;
};

TEST_F(PackInvalidationTest, RepeatedForwardsNeverRepack) {
  auto exec = raw_executor(EccMode::kNone);
  const Tensor first = exec->forward(images_);
  const i64 packs = exec->core().packs();
  EXPECT_EQ(packs, exec->core().num_deployments());
  const Tensor one = data_.test.batch_images(0, 1);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(same_bytes(exec->forward(images_), first));
    EXPECT_TRUE(same_bytes(exec->forward(one), exec->forward(one)));
  }
  // Verify probes, the modeled walk and backend switches read cells but
  // never write them.
  EXPECT_EQ(exec->verify_against(exec->export_image()), "");
  (void)exec->forward_with(KernelBackend::kModeled, images_);
  EXPECT_EQ(exec->core().packs(), packs);
}

TEST_F(PackInvalidationTest, FaultInjectionRepacks) {
  auto exec = raw_executor(EccMode::kNone);
  const Tensor before = exec->forward(images_);
  const i64 packs = exec->core().packs();
  Rng rng(3);
  exec->inject_nvm_faults(MtjFaultModel::symmetric(5e-3), rng);
  expect_tracks_cells(*exec, before, "inject_nvm_faults");
  EXPECT_GT(exec->core().packs(), packs);
}

TEST_F(PackInvalidationTest, RepairingScrubRepacks) {
  auto exec = raw_executor(EccMode::kSecDed);
  Rng rng(4);
  exec->inject_nvm_faults(MtjFaultModel::symmetric(2e-3), rng);
  const Tensor faulty = exec->forward(images_);
  exec->scrub(/*repair_detected_from_golden=*/true);
  expect_tracks_cells(*exec, faulty, "repairing scrub");
}

TEST_F(PackInvalidationTest, PowerFailWarmRestartRepacks) {
  // Unprotected arrays: retention drift survives the warm restart, so
  // the restored cells differ from the ones packed before the outage.
  auto exec = raw_executor(EccMode::kNone);
  const Tensor before = exec->forward(images_);
  const auto loss =
      exec->power_fail(/*outage_s=*/50.0, /*seed=*/8, /*retention_tau_s=*/5.0);
  ASSERT_GT(loss.mram_drift.bits_flipped, 0);
  exec->warm_restart();
  expect_tracks_cells(*exec, before, "power_fail + warm_restart");
}

TEST_F(PackInvalidationTest, WearTrackedReprogramRepacks) {
  WearOptions wear;
  wear.enabled = true;
  wear.device.write_error_rate = 0.0;
  auto exec = raw_executor(EccMode::kNone,
                           std::make_shared<MramWearTracker>(wear));
  Rng rng(6);
  exec->inject_nvm_faults(MtjFaultModel::symmetric(5e-3), rng);
  const Tensor faulty = exec->forward(images_);
  exec->reprogram_nvm(WearPath::kSwap);  // golden codes back into cells
  expect_tracks_cells(*exec, faulty, "reprogram_nvm");
}

TEST_F(PackInvalidationTest, LayerUpdateRepacks) {
  HybridCoreOptions options;
  options.backend = KernelBackend::kRaw;
  HybridCore core(options);
  Rng rng(9);
  Tensor w = Tensor::randn(Shape{6, 32}, rng);
  apply_mask(w, select_nm_mask(w, kSparse1of4, GroupAxis::kCols));
  PimMatmulLayer layer(core, w, kSparse1of4, PeKind::kSram, 0.05f);
  const Tensor x = Tensor::randn(Shape{3, 32}, rng);
  const Tensor before = layer.matmul(x);

  Tensor updated = Tensor::randn(Shape{6, 32}, rng);
  apply_mask(updated, select_nm_mask(updated, kSparse1of4, GroupAxis::kCols));
  layer.update(updated);  // redeploy_sram
  const Tensor raw = layer.matmul(x);
  core.set_backend(KernelBackend::kModeled);
  EXPECT_TRUE(same_bytes(raw, layer.matmul(x)));
  EXPECT_FALSE(same_bytes(raw, before));
  EXPECT_EQ(core.packs(), 2);
}

TEST_F(PackInvalidationTest, EngineSwapAndHealServeFreshPacks) {
  // Every served batch is re-run through the modeled kernels on the same
  // replica (the shadow oracle), across a swap and a heal.
  ServingEngineOptions options;
  options.workers = 1;
  options.batcher = {.max_batch_rows = 5, .max_wait_us = 0.0};
  options.shadow_every_batches = 1;
  options.executor.calibration_batch = 8;
  options.executor.calibration_batches = 1;
  ServingEngine engine(*model_, data_.train, options);
  const Tensor before = engine.submit(images_).get().logits;

  Rng rng(31);
  RepNetModel other(small_backbone(),
                    RepNetConfig{.bottleneck_divisor = 8, .min_bottleneck = 8},
                    small_task().classes, rng);
  SparsityPlan backbone_plan, rep_plan;
  backbone_plan.prune(other.backbone_params(), kSparse1of4, false);
  rep_plan.prune(other.rep_conv_params(), kSparse1of4, false);
  auto image = std::make_shared<DeploymentImage>(
      PimRepNetExecutor(other, data_.train, options.executor).export_image());
  ASSERT_TRUE(engine.swap_model(image));
  const Tensor swapped = engine.submit(images_).get().logits;
  EXPECT_FALSE(same_bytes(swapped, before));

  engine.inject_worker_fault(0, WorkerFault::kCrashNextBatch);
  const InferenceResponse healed = engine.submit(images_).get();
  ASSERT_EQ(healed.status, RequestStatus::kOk);
  EXPECT_TRUE(same_bytes(healed.logits, swapped));
  engine.shutdown();

  const MetricsSnapshot snapshot = engine.metrics().snapshot();
  EXPECT_EQ(snapshot.heals, 1);
  // Before the swap, after it, and after the heal; the crashed batch
  // served nothing to check.
  EXPECT_EQ(snapshot.shadow_checks, 3);
  EXPECT_EQ(snapshot.shadow_mismatches, 0);
}

// ----- direct conv vs the modeled gather walk, over geometries --------

struct ConvCase {
  i64 kernel = 3, stride = 1, padding = 1;
  i64 in_ch = 3, out_ch = 6, height = 7, width = 9;
  i64 batch = 1;
  PeKind kind = PeKind::kMram;
  bool sparse = true;
};

std::string describe(const ConvCase& c) {
  return "k" + std::to_string(c.kernel) + " s" + std::to_string(c.stride) +
         " p" + std::to_string(c.padding) + " " + std::to_string(c.in_ch) +
         "->" + std::to_string(c.out_ch) + " " + std::to_string(c.height) +
         "x" + std::to_string(c.width) + " b" + std::to_string(c.batch) +
         (c.kind == PeKind::kSram ? " sram" : " mram") +
         (c.sparse ? " 1:4" : " dense");
}

/// The im2col lowering the direct conv replaced, through a separate
/// deployment of the same weights: [N, out, Ho, Wo] accumulators
/// dequantized with the conv's bias.
Tensor im2col_reference(PimMatmulLayer& layer, const Tensor& x,
                        Conv2d& conv) {
  const Conv2dGeometry& g = conv.geometry();
  const i64 n = x.shape()[0];
  const i64 ho = g.out_dim(x.shape()[2]), wo = g.out_dim(x.shape()[3]);
  const Tensor rows = im2col(x, g).transposed();  // [N*Ho*Wo, K]
  const Tensor y = layer.matmul(rows, &conv.bias().value);
  Tensor out(Shape{n, g.out_channels, ho, wo});
  const i64 spatial = ho * wo;
  for (i64 p = 0; p < n * spatial; ++p) {
    for (i64 oc = 0; oc < g.out_channels; ++oc) {
      out[(p / spatial * g.out_channels + oc) * spatial + p % spatial] =
          y[p * g.out_channels + oc];
    }
  }
  return out;
}

/// Prunes an [out x K] weight to 1:4 along K, in groups counted from
/// K index 0 as the deployment pads them.
void prune_1of4(Tensor& w) {
  const i64 out = w.shape()[0], k = w.shape()[1];
  const i64 padded_k = (k + 3) / 4 * 4;
  Tensor padded(Shape{out, padded_k});
  for (i64 r = 0; r < out; ++r)
    for (i64 i = 0; i < k; ++i) padded[r * padded_k + i] = w[r * k + i];
  apply_mask(padded, select_nm_mask(padded, kSparse1of4, GroupAxis::kCols));
  for (i64 r = 0; r < out; ++r)
    for (i64 i = 0; i < k; ++i) w[r * k + i] = padded[r * padded_k + i];
}

/// Runs one geometry through PimConv on both backends of one core, plain
/// and with a fused epilogue, against the im2col reference on the
/// modeled walk. `mutate` (optional) writes the same cells of both
/// deployments first.
using Mutate = std::function<void(HybridCore&, i64)>;
void expect_conv_backends_match(const ConvCase& c,
                                const Mutate& mutate = nullptr) {
  SCOPED_TRACE(describe(c));
  const i64 seed = c.kernel * 131 + c.stride * 17 + c.padding * 7 + c.batch;
  Rng rng(static_cast<u64>(seed));
  const Conv2dGeometry geom{c.in_ch, c.out_ch, c.kernel, c.stride, c.padding};
  Conv2d conv(geom, rng);
  Tensor& w = conv.weight().value;
  if (c.sparse) prune_1of4(w);
  conv.bias().value = Tensor::randn(Shape{c.out_ch}, rng, 0.0f, 0.5f);

  HybridCore core;
  PimConv pim(core, conv, kSparse1of4, c.kind, 0.04f);
  PimMatmulLayer reference(core, w, kSparse1of4, c.kind, 0.04f);
  ASSERT_EQ(pim.matmul_layer().deployed_sparse(), c.sparse);
  if (mutate) {
    mutate(core, pim.matmul_layer().handle());
    mutate(core, reference.handle());
  }

  const Shape input{c.batch, c.in_ch, c.height, c.width};
  const Tensor x = Tensor::randn(input, rng);
  const Shape channels{c.out_ch};
  BatchNorm2d bn(c.out_ch);
  bn.set_running_stats(Tensor::randn(channels, rng, 0.0f, 0.5f),
                       Tensor::uniform(channels, rng, 0.3f, 2.0f));
  const Tensor plain_ref = im2col_reference(reference, x, conv);
  const Tensor residual = Tensor::randn(plain_ref.shape(), rng);
  ConvEpilogue epilogue;
  epilogue.bn = &bn;
  epilogue.residual = &residual;
  epilogue.relu = ConvEpilogue::Relu::kMax;
  Tensor fused_ref = plain_ref;
  epilogue.apply(fused_ref);

  // The epilogue runs after HybridCore::conv_into on either backend, so
  // the fused path goes through the raw one only; both go plain.
  core.set_backend(KernelBackend::kRaw);
  EXPECT_TRUE(same_bytes(pim.forward(x), plain_ref)) << "raw";
  EXPECT_TRUE(same_bytes(pim.forward(x, epilogue), fused_ref)) << "raw fused";
  core.set_backend(KernelBackend::kModeled);
  EXPECT_TRUE(same_bytes(pim.forward(x), plain_ref)) << "modeled";
}

TEST(DirectConvGrid, KernelStridePaddingBatch) {
  // Every kernel x stride x padding once; batch, PE kind,
  // packing and the odd, non-square input and channel counts rotate
  // through the grid so each value meets several geometries.
  const i64 batches[] = {1, 7, 32};
  const i64 in_chs[] = {3, 5, 7};
  const i64 out_chs[] = {5, 13, 7, 9};
  const std::pair<i64, i64> sizes[] = {{7, 9}, {6, 11}, {9, 5}};
  i64 i = 0;
  for (const i64 kernel : {1, 3, 5}) {
    for (const i64 stride : {1, 2, 3}) {
      for (const i64 padding : {0, 1, 2}) {
        ConvCase c;
        c.kernel = kernel;
        c.stride = stride;
        c.padding = padding;
        c.in_ch = in_chs[(i / 3) % 3];
        c.out_ch = out_chs[i % 4];
        std::tie(c.height, c.width) = sizes[(i + i / 3) % 3];
        c.batch = batches[i % 3];
        c.kind = i % 2 == 0 ? PeKind::kMram : PeKind::kSram;
        c.sparse = (i / 4) % 2 == 0;
        expect_conv_backends_match(c);
        ++i;
      }
    }
  }
}

TEST(DirectConvGrid, FaultFlippedIndexIntoKTailReadsZero) {
  // K = 3 * 3 * 3 = 27 pads to 28: the last 1:4 group spans dense rows
  // 24..27, and index 3 there addresses row 27, the K tail. Setting every
  // MRAM index cell to 3 moves each of that group's entries into the
  // tail, where the gathered code — and so the direct conv's input — is
  // 0; every other group lands on a real tap.
  const auto flip_to_tail = [](HybridCore& core, i64 handle) {
    const HybridCore::NvmCodeView view = core.nvm_codes(handle);
    ASSERT_FALSE(view.is_sram);
    for (u8* index : view.indices) *index = 3;
  };
  ConvCase c;  // 3 -> 6 channels, 3x3 kernel, MRAM, 1:4
  for (const i64 batch : {1, 7}) {
    c.batch = batch;
    expect_conv_backends_match(c, flip_to_tail);
  }
}

// ----- arena red zones ------------------------------------------------

TEST(KernelArenaAsan, BytesPastEveryAllocationArePoisoned) {
  if (!KernelArena::kPoisons) GTEST_SKIP() << "not an AddressSanitizer build";
#if MSH_ARENA_POISONS
  KernelArena arena;
  for (int round = 0; round < 2; ++round) {
    arena.reset();
    for (const i64 count : {1, 7, 64, 333}) {
      const std::span<i16> span = arena.alloc<i16>(count);
      EXPECT_FALSE(__asan_address_is_poisoned(span.data()));
      EXPECT_FALSE(__asan_address_is_poisoned(span.data() + count - 1));
      EXPECT_TRUE(__asan_address_is_poisoned(span.data() + span.size()));
    }
  }
#endif
}

}  // namespace
}  // namespace msh
