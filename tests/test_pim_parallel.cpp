// Bit-exactness of the intra-batch parallel PIM compute path: a
// HybridCore with an attached thread pool must produce outputs, PE event
// totals, and bus/buffer accounting identical to the sequential walk at
// every batch x thread combination — the determinism contract that lets
// serving replicas turn on intra_op_threads without changing results.
// Also pins PimConv's INT8 lowering to the float im2col composition it
// replaced, byte for byte, on both backends.
#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <vector>

#include "arch/accelerator.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "deploy/pim_executor.h"
#include "deploy/pim_layer.h"
#include "kernels/quant_kernels.h"
#include "sparse/nm_mask.h"
#include "workloads/task_suite.h"

namespace msh {
namespace {

/// Every counter the parallel path merges back, compared field by field.
void expect_events_equal(const PeEventCounts& a, const PeEventCounts& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.buffer_bits_read, b.buffer_bits_read);
  EXPECT_EQ(a.buffer_bits_written, b.buffer_bits_written);
  EXPECT_EQ(a.sram_array_cycles, b.sram_array_cycles);
  EXPECT_EQ(a.sram_decoder_cycles, b.sram_decoder_cycles);
  EXPECT_EQ(a.sram_adder_tree_ops, b.sram_adder_tree_ops);
  EXPECT_EQ(a.sram_shift_acc_ops, b.sram_shift_acc_ops);
  EXPECT_EQ(a.sram_index_compares, b.sram_index_compares);
  EXPECT_EQ(a.sram_row_acc_ops, b.sram_row_acc_ops);
  EXPECT_EQ(a.sram_weight_bits_written, b.sram_weight_bits_written);
  EXPECT_EQ(a.sram_write_row_ops, b.sram_write_row_ops);
  EXPECT_EQ(a.mram_row_reads, b.mram_row_reads);
  EXPECT_EQ(a.mram_shift_acc_ops, b.mram_shift_acc_ops);
  EXPECT_EQ(a.mram_adder_tree_ops, b.mram_adder_tree_ops);
  EXPECT_EQ(a.mram_set_reset_bits, b.mram_set_reset_bits);
  EXPECT_EQ(a.mram_write_row_ops, b.mram_write_row_ops);
}

/// A sparse weight matrix both PE kinds can deploy with 1:4 packing.
Tensor sparse_weight(i64 out, i64 k, u64 seed) {
  Rng rng(seed);
  Tensor w = Tensor::randn(Shape{out, k}, rng);
  NmMask mask = select_nm_mask(w, kSparse1of4, GroupAxis::kCols);
  apply_mask(w, mask);
  return w;
}

struct LayerParallelCase {
  PeKind kind;
  i64 batch;
  i64 threads;
};

class PimParallelTest : public ::testing::TestWithParam<LayerParallelCase> {};

// The ISSUE acceptance grid: batch {1, 7, 32} x threads {1, 3, 8}, both
// PE kinds. Two independent cores run the same layer on the same input;
// only one has a pool attached.
TEST_P(PimParallelTest, MatchesSequentialBitExactly) {
  const LayerParallelCase& tc = GetParam();
  const i64 out = 6, k = 64;
  const Tensor w = sparse_weight(out, k, 11);

  HybridCore seq_core;
  PimMatmulLayer seq_layer(seq_core, w, kSparse1of4, tc.kind, 0.05f);
  ASSERT_TRUE(seq_layer.deployed_sparse());

  HybridCore par_core;
  ThreadPool pool(tc.threads);
  par_core.set_intra_op_pool(&pool);
  PimMatmulLayer par_layer(par_core, w, kSparse1of4, tc.kind, 0.05f);

  Rng rng(23);
  const Tensor x = Tensor::randn(Shape{tc.batch, k}, rng, 0.0f, 1.0f);
  const Tensor y_seq = seq_layer.matmul(x);
  const Tensor y_par = par_layer.matmul(x);

  ASSERT_EQ(y_seq.shape(), y_par.shape());
  for (i64 i = 0; i < y_seq.numel(); ++i) {
    ASSERT_EQ(y_seq[i], y_par[i]) << "output element " << i;
  }

  // Accounting is replayed in row order after the parallel compute, so
  // every externally visible counter matches the sequential core.
  expect_events_equal(par_core.pe_events(), seq_core.pe_events());
  EXPECT_EQ(par_core.shared_accumulator_ops(),
            seq_core.shared_accumulator_ops());
  EXPECT_EQ(par_core.bus().bits_moved(), seq_core.bus().bits_moved());
  EXPECT_EQ(par_core.bus().busy_cycles(), seq_core.bus().busy_cycles());
  EXPECT_EQ(par_core.buffer().bytes_loaded(),
            seq_core.buffer().bytes_loaded());
  EXPECT_EQ(par_core.buffer().bytes_read(), seq_core.buffer().bytes_read());

  EXPECT_EQ(par_core.last_utilization(), seq_core.last_utilization());
  // Modeled time: the parallel makespan is the busiest lane's cycle sum
  // — never more than sequential, and equal when only one lane runs.
  EXPECT_LE(par_core.last_makespan(), seq_core.last_makespan());
  EXPECT_GT(par_core.last_makespan(), 0);
  if (pool.shards(tc.batch) <= 1) {
    EXPECT_EQ(par_core.last_makespan(), seq_core.last_makespan());
  }

  // A second pass accumulates on top of the first identically.
  const Tensor y_seq2 = seq_layer.matmul(x);
  const Tensor y_par2 = par_layer.matmul(x);
  for (i64 i = 0; i < y_seq2.numel(); ++i) {
    ASSERT_EQ(y_seq2[i], y_par2[i]);
  }
  expect_events_equal(par_core.pe_events(), seq_core.pe_events());
}

std::vector<LayerParallelCase> parallel_grid() {
  std::vector<LayerParallelCase> cases;
  for (PeKind kind : {PeKind::kSram, PeKind::kMram}) {
    for (i64 batch : {1, 7, 32}) {
      for (i64 threads : {1, 3, 8}) {
        cases.push_back({kind, batch, threads});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PimParallelTest, ::testing::ValuesIn(parallel_grid()),
    [](const ::testing::TestParamInfo<LayerParallelCase>& info) {
      const LayerParallelCase& tc = info.param;
      return std::string(tc.kind == PeKind::kSram ? "sram" : "mram") +
             "_b" + std::to_string(tc.batch) + "_t" +
             std::to_string(tc.threads);
    });

TEST(PimParallel, ModeledMakespanReflectsLaneParallelism) {
  // 8 lanes over 32 rows: the busiest lane carries ceil(32/8) = 4 rows,
  // so the modeled makespan lands near 1/8 of the sequential row sum.
  const i64 out = 6, k = 64, batch = 32;
  const Tensor w = sparse_weight(out, k, 31);

  HybridCore seq_core;
  PimMatmulLayer seq_layer(seq_core, w, kSparse1of4, PeKind::kSram, 0.05f);

  HybridCore par_core;
  ThreadPool pool(8);
  par_core.set_intra_op_pool(&pool);
  PimMatmulLayer par_layer(par_core, w, kSparse1of4, PeKind::kSram, 0.05f);

  Rng rng(5);
  const Tensor x = Tensor::randn(Shape{batch, k}, rng, 0.0f, 1.0f);
  seq_layer.matmul(x);
  par_layer.matmul(x);

  const f64 speedup = static_cast<f64>(seq_core.last_makespan()) /
                      static_cast<f64>(par_core.last_makespan());
  // ceil(32/8) = 4 rows on the critical lane -> ~8x modeled speedup.
  EXPECT_GE(speedup, 2.5);
  EXPECT_LE(speedup, 8.5);
}

TEST(PimParallel, BiasAppliedOncePerOutputWithBatch) {
  // Regression for the hoisted bias loop: with batch > 1 and a pool
  // attached, the fused dequant+bias write must add the bias exactly
  // once per output element and stay bit-identical to sequential.
  const i64 out = 5, k = 64, batch = 7;
  const Tensor w = sparse_weight(out, k, 47);
  Rng rng(53);
  Tensor bias = Tensor::randn(Shape{out}, rng);

  HybridCore seq_core;
  PimMatmulLayer seq_layer(seq_core, w, kSparse1of4, PeKind::kSram, 0.05f);
  HybridCore par_core;
  ThreadPool pool(3);
  par_core.set_intra_op_pool(&pool);
  PimMatmulLayer par_layer(par_core, w, kSparse1of4, PeKind::kSram, 0.05f);

  const Tensor x = Tensor::randn(Shape{batch, k}, rng, 0.0f, 1.0f);
  const Tensor y_seq = seq_layer.matmul(x, &bias);
  const Tensor y_par = par_layer.matmul(x, &bias);
  const Tensor y_nobias = par_layer.matmul(x);

  for (i64 b = 0; b < batch; ++b) {
    for (i64 j = 0; j < out; ++j) {
      const i64 i = b * out + j;
      ASSERT_EQ(y_seq[i], y_par[i]);
      // Exactly one bias addition, fused into the dequant rounding.
      ASSERT_EQ(y_par[i], y_nobias[i] + bias[j]);
    }
  }
}

TEST(PimParallel, InlinePoolMatchesNullPool) {
  // size() == 0 and size() == 1 pools must take the sequential path —
  // identical makespan accounting, not just identical outputs.
  const i64 out = 4, k = 64, batch = 5;
  const Tensor w = sparse_weight(out, k, 61);
  Rng rng(67);
  const Tensor x = Tensor::randn(Shape{batch, k}, rng, 0.0f, 1.0f);

  HybridCore ref_core;
  PimMatmulLayer ref_layer(ref_core, w, kSparse1of4, PeKind::kSram, 0.05f);
  const Tensor y_ref = ref_layer.matmul(x);

  for (i64 threads : {0, 1}) {
    HybridCore core;
    ThreadPool pool(threads);
    core.set_intra_op_pool(&pool);
    PimMatmulLayer layer(core, w, kSparse1of4, PeKind::kSram, 0.05f);
    const Tensor y = layer.matmul(x);
    for (i64 i = 0; i < y.numel(); ++i) ASSERT_EQ(y[i], y_ref[i]);
    EXPECT_EQ(core.last_makespan(), ref_core.last_makespan());
    expect_events_equal(core.pe_events(), ref_core.pe_events());
  }
}

// ----- conv lowering: INT8 im2col vs the float composition ------------

/// The float lowering PimConv::forward replaced, kept as its reference:
/// im2col -> transpose -> quantize_activations -> HybridCore::matmul ->
/// dequantize_outputs -> NCHW scatter + bias (0.0f when absent).
Tensor reference_conv_forward(HybridCore& core, const PimConv& conv,
                              const Conv2dGeometry& geom, const Tensor& bias,
                              const Tensor& x) {
  const PimMatmulLayer& mm = conv.matmul_layer();
  ThreadPool* pool = core.intra_op_pool();
  const Tensor rows = im2col(x, geom).transposed();  // [positions, K]
  const i64 positions = rows.shape()[0], k = rows.shape()[1];
  const i64 out = geom.out_channels;
  std::vector<i8> codes(static_cast<size_t>(positions * mm.padded_k()));
  quantize_activations(rows.data(), positions, k, mm.padded_k(),
                       mm.activation_params(), codes.data(), pool);
  const std::vector<i32> acc = core.matmul(mm.handle(), codes, positions);
  std::vector<f32> flat(static_cast<size_t>(positions * out));
  dequantize_outputs(acc.data(), positions, out,
                     mm.activation_scale() * mm.weight_scale(), nullptr,
                     flat.data(), pool);

  const i64 n = x.shape()[0];
  const i64 ho = geom.out_dim(x.shape()[2]), wo = geom.out_dim(x.shape()[3]);
  const i64 spatial = ho * wo;
  Tensor y(Shape{n, out, ho, wo});
  for (i64 img = 0; img < n; ++img) {
    for (i64 oc = 0; oc < out; ++oc) {
      const f32 b = bias.empty() ? 0.0f : bias[oc];
      for (i64 s = 0; s < spatial; ++s) {
        y[(img * out + oc) * spatial + s] =
            flat[static_cast<size_t>((img * spatial + s) * out + oc)] + b;
      }
    }
  }
  return y;
}

TEST(PimConvLowering, MatchesFloatIm2colReferenceBitExactly) {
  // kernel x stride x padding x bias x batch x backend x threads. Kernel
  // 2 takes the gather's generic path, 1 and 3 its unrolled ones. Odd
  // cases deploy dense, with K = 27 (the stem's) and 6 not multiples of
  // the group size M = 4, so the K tail is padded; even cases deploy
  // 1:4 sparse. A 7x5 input catches any H/W mix-up.
  i64 case_id = 0;
  for (const i64 kernel : {1, 2, 3}) {
    for (const i64 stride : {1, 2}) {
      for (const i64 padding : {0, 1}) {
        for (const bool with_bias : {false, true}) {
          ++case_id;
          const bool sparse = case_id % 2 == 0;
          const i64 in_ch = sparse ? 4 : (kernel == 3 ? 3 : 6);
          const Conv2dGeometry geom{.in_channels = in_ch,
                                    .out_channels = 5,
                                    .kernel = kernel,
                                    .stride = stride,
                                    .padding = padding};
          Rng rng(100 + static_cast<u64>(case_id));
          Conv2d conv(geom, rng, with_bias);
          const i64 k = in_ch * kernel * kernel;
          if (sparse) conv.set_weight(sparse_weight(5, k, 200 + case_id));
          if (with_bias) conv.bias().value = Tensor::randn(Shape{5}, rng);

          for (const i64 batch : {1, 7, 32}) {
            // Wide enough that ~10% of codes saturate at the 0.02 scale,
            // with some exact zeros mixed in.
            Tensor x = Tensor::randn(Shape{batch, in_ch, 7, 5}, rng, 0.0f,
                                     1.0f);
            for (i64 i = 0; i < x.numel(); i += 11) x[i] = 0.0f;
            for (const KernelBackend backend :
                 {KernelBackend::kModeled, KernelBackend::kRaw}) {
              HybridCoreOptions options;
              options.backend = backend;
              HybridCore ref_core(options);
              PimConv ref_conv(ref_core, conv, kSparse1of4, PeKind::kSram,
                               0.02f);
              const Tensor want = reference_conv_forward(
                  ref_core, ref_conv, geom,
                  with_bias ? conv.bias().value : Tensor(), x);
              for (const i64 threads : {1, 3}) {
                SCOPED_TRACE("k" + std::to_string(kernel) + " s" +
                             std::to_string(stride) + " p" +
                             std::to_string(padding) +
                             (with_bias ? " bias" : " nobias") + " b" +
                             std::to_string(batch) + " " +
                             to_string(backend) + " t" +
                             std::to_string(threads));
                ThreadPool pool(threads);
                HybridCore core(options);
                if (threads > 1) core.set_intra_op_pool(&pool);
                PimConv lowered(core, conv, kSparse1of4, PeKind::kSram,
                                0.02f);
                ASSERT_EQ(lowered.matmul_layer().deployed_sparse(), sparse);

                const Tensor got = lowered.forward(x);
                ASSERT_EQ(got.shape(), want.shape());
                for (i64 i = 0; i < got.numel(); ++i) {
                  // Byte equality: also tells 0.0f from -0.0f.
                  ASSERT_EQ(std::bit_cast<u32>(got[i]),
                            std::bit_cast<u32>(want[i]))
                      << "output element " << i;
                }
                // The modeled walk sees the same code rows, so every
                // event, bus and buffer counter matches the sequential
                // reference too.
                expect_events_equal(core.pe_events(), ref_core.pe_events());
                EXPECT_EQ(core.shared_accumulator_ops(),
                          ref_core.shared_accumulator_ops());
                EXPECT_EQ(core.bus().bits_moved(),
                          ref_core.bus().bits_moved());
                EXPECT_EQ(core.bus().busy_cycles(),
                          ref_core.bus().busy_cycles());
                EXPECT_EQ(core.buffer().bytes_loaded(),
                          ref_core.buffer().bytes_loaded());
                EXPECT_EQ(core.buffer().bytes_read(),
                          ref_core.buffer().bytes_read());
              }
            }
          }
        }
      }
    }
  }
}

TEST(PimParallel, ExecutorKnobKeepsForwardBitIdentical) {
  // The intra_op_threads option threaded through PimRepNetExecutor: a
  // whole-model forward with a private 4-thread pool must match the
  // sequential executor's logits bit for bit, and a clone must inherit
  // the option (its own pool) and still match.
  SyntheticSpec spec;
  spec.name = "parallel-exec";
  spec.classes = 2;
  spec.train_per_class = 8;
  spec.test_per_class = 4;
  spec.image_size = 10;
  spec.noise = 0.2f;
  spec.seed = 71;
  TrainTestSplit data = make_synthetic_dataset(spec);

  BackboneConfig backbone;
  backbone.stem_channels = 8;
  backbone.stage_channels = {8};
  backbone.blocks_per_stage = {1};
  backbone.stage_strides = {1};
  Rng model_rng(73);
  RepNetModel model(backbone,
                    RepNetConfig{.bottleneck_divisor = 8,
                                 .min_bottleneck = 8},
                    2, model_rng);

  PimExecutorOptions seq_options;
  seq_options.calibration_batch = 8;
  seq_options.calibration_batches = 1;
  PimRepNetExecutor seq_exec(model, data.train, seq_options);

  PimExecutorOptions par_options = seq_options;
  par_options.intra_op_threads = 4;
  PimRepNetExecutor par_exec(model, data.train, par_options);

  const Tensor images = data.test.batch_images(0, 4);
  const Tensor y_seq = seq_exec.forward(images);
  const Tensor y_par = par_exec.forward(images);
  ASSERT_EQ(y_seq.shape(), y_par.shape());
  for (i64 i = 0; i < y_seq.numel(); ++i) {
    ASSERT_EQ(y_seq[i], y_par[i]) << "logit " << i;
  }

  // clone() copies the options, so the replica gets its own pool.
  std::unique_ptr<PimRepNetExecutor> replica = par_exec.clone();
  const Tensor y_clone = replica->forward(images);
  for (i64 i = 0; i < y_seq.numel(); ++i) {
    ASSERT_EQ(y_seq[i], y_clone[i]);
  }
}

}  // namespace
}  // namespace msh
