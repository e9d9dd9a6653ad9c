// Two-tier executor differential suite (DESIGN §5i): the raw SIMD
// backend must be bit-identical to the modeled backend on every forward
// — across shapes, sparsity patterns, PE kinds and protection modes —
// and must export byte-identical DeploymentImages, while reporting zero
// modeled metrics. Also pins PimConv's INT8 lowering to the float im2col
// composition it replaced, byte for byte, on both backends, and covers
// composition with fault injection, ECC scrub, clone/heal plumbing and
// the zero-copy batch assembly the raw path serves through.
#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "deploy/pim_executor.h"
#include "kernels/quant_kernels.h"
#include "kernels/raw_kernels.h"
#include "kernels/simd.h"
#include "runtime/dynamic_batcher.h"
#include "sparse/nm_mask.h"
#include "workloads/task_suite.h"

namespace msh {
namespace {

BackboneConfig tiny_backbone() {
  BackboneConfig cfg;
  cfg.stem_channels = 8;
  cfg.stage_channels = {8};
  cfg.blocks_per_stage = {1};
  cfg.stage_strides = {1};
  return cfg;
}

SyntheticSpec tiny_task() {
  SyntheticSpec spec;
  spec.name = "backend-task";
  spec.classes = 3;
  spec.train_per_class = 8;
  spec.test_per_class = 4;
  spec.image_size = 10;
  spec.noise = 0.2f;
  spec.seed = 7;
  return spec;
}

Tensor sparse_weight(i64 out, i64 k, NmConfig cfg, u64 seed) {
  Rng rng(seed);
  Tensor w = Tensor::randn(Shape{out, k}, rng);
  NmMask mask = select_nm_mask(w, cfg, GroupAxis::kCols);
  apply_mask(w, mask);
  return w;
}

void expect_tensors_bit_equal(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (i64 i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "diverged at flat index " << i;
  }
}

/// Every PE event counter, compared field by field.
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

/// One differential case: the same weights on a modeled core and a raw
/// core, the same activations through both layers, bit-equal outputs.
void expect_backends_match(const Tensor& w, NmConfig cfg, PeKind kind,
                           i64 batch, u64 seed) {
  const i64 k = w.shape()[1];
  HybridCore modeled_core;
  HybridCoreOptions raw_options;
  raw_options.backend = KernelBackend::kRaw;
  HybridCore raw_core(raw_options);
  PimMatmulLayer modeled_layer(modeled_core, w, cfg, kind, 0.05f);
  PimMatmulLayer raw_layer(raw_core, w, cfg, kind, 0.05f);

  // Forward must not touch modeled metrics on the raw backend; deploy
  // accounting (load/program events) is state, not compute, and stays.
  const PeEventCounts deploy_events = raw_core.pe_events();

  Rng rng(seed);
  const Tensor x = Tensor::randn(Shape{batch, k}, rng, 0.0f, 1.0f);
  const Tensor y_modeled = modeled_layer.matmul(x);
  const Tensor y_raw = raw_layer.matmul(x);
  expect_tensors_bit_equal(y_modeled, y_raw);
  EXPECT_GT(modeled_core.last_makespan(), 0);

  EXPECT_EQ(raw_core.last_makespan(), 0);
  EXPECT_EQ(raw_core.last_utilization(), 0.0);
  EXPECT_EQ(raw_core.shared_accumulator_ops(), 0);
  const PeEventCounts after = raw_core.pe_events();
  EXPECT_EQ(after.cycles, deploy_events.cycles);
  EXPECT_EQ(after.buffer_bits_read, deploy_events.buffer_bits_read);
  EXPECT_EQ(after.sram_array_cycles, deploy_events.sram_array_cycles);
  EXPECT_EQ(after.mram_row_reads, deploy_events.mram_row_reads);
}

TEST(KernelBackends, RandomizedShapesAndSparsities) {
  const NmConfig cfgs[] = {kSparse1of4, kSparse1of8, NmConfig{2, 4}};
  Rng rng(2024);
  for (i64 i = 0; i < 18; ++i) {
    const NmConfig cfg = cfgs[i % 3];
    const i64 out = rng.uniform_int(3, 24);
    const i64 k = cfg.m * rng.uniform_int(4, 20);
    const PeKind kind = (i % 2 == 0) ? PeKind::kSram : PeKind::kMram;
    const i64 batch = rng.uniform_int(1, 13);
    SCOPED_TRACE("case " + std::to_string(i) + ": " +
                 std::to_string(cfg.n) + ":" + std::to_string(cfg.m) +
                 " [" + std::to_string(out) + "x" + std::to_string(k) +
                 "] " + (kind == PeKind::kSram ? "sram" : "mram") +
                 " batch=" + std::to_string(batch));
    const Tensor w = sparse_weight(out, k, cfg, 500 + i);
    expect_backends_match(w, cfg, kind, batch, 9000 + i);
  }
}

TEST(KernelBackends, DenseFallbackMatches) {
  // Unpruned weights fall back to dense M:M packing; the raw flattening
  // must follow the same path.
  Rng rng(31);
  const Tensor w = Tensor::randn(Shape{7, 36}, rng);  // 36 pads to 1:4
  expect_backends_match(w, kSparse1of4, PeKind::kSram, 5, 77);
  expect_backends_match(w, kSparse1of4, PeKind::kMram, 5, 78);
}

TEST(KernelBackends, BiasAppliedOncePerOutputWithBatch) {
  // With batch > 1, the fused dequant+bias write must add the bias exactly
  // once per output element, identically on both backends.
  const i64 out = 5, k = 64, batch = 7;
  const Tensor w = sparse_weight(out, k, kSparse1of4, 47);
  Rng rng(53);
  Tensor bias = Tensor::randn(Shape{out}, rng);

  HybridCore modeled_core;
  PimMatmulLayer modeled_layer(modeled_core, w, kSparse1of4, PeKind::kSram,
                               0.05f);
  HybridCoreOptions raw_options;
  raw_options.backend = KernelBackend::kRaw;
  HybridCore raw_core(raw_options);
  PimMatmulLayer raw_layer(raw_core, w, kSparse1of4, PeKind::kSram, 0.05f);

  const Tensor x = Tensor::randn(Shape{batch, k}, rng, 0.0f, 1.0f);
  const Tensor y = modeled_layer.matmul(x, &bias);
  const Tensor y_nobias = modeled_layer.matmul(x);
  expect_tensors_bit_equal(y, raw_layer.matmul(x, &bias));
  for (i64 b = 0; b < batch; ++b) {
    for (i64 j = 0; j < out; ++j) {
      // Exactly one bias addition, fused into the dequant rounding.
      ASSERT_EQ(y[b * out + j], y_nobias[b * out + j] + bias[j]);
    }
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
  const Tensor rows = im2col(x, geom).transposed();  // [positions, K]
  const i64 positions = rows.shape()[0], k = rows.shape()[1];
  const i64 out = geom.out_channels;
  std::vector<i8> codes(static_cast<size_t>(positions * mm.padded_k()));
  quantize_activations(rows.data(), positions, k, mm.padded_k(),
                       mm.activation_params(), codes.data());
  const std::vector<i32> acc = core.matmul(mm.handle(), codes, positions);
  std::vector<f32> flat(static_cast<size_t>(positions * out));
  dequantize_outputs(acc.data(), positions, out,
                     mm.activation_scale() * mm.weight_scale(), nullptr,
                     flat.data());

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
  // kernel x stride x padding x bias x batch x backend. Kernel 2 takes
  // the gather's generic path, 1 and 3 its unrolled ones. Odd cases
  // deploy dense, with K = 27 (the stem's) and 6 not multiples of the
  // group size M = 4, so the K tail is padded; even cases deploy 1:4
  // sparse. A 7x5 input catches any H/W mix-up.
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
          if (sparse) {
            conv.set_weight(sparse_weight(5, k, kSparse1of4, 200 + case_id));
          }
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
              SCOPED_TRACE("k" + std::to_string(kernel) + " s" +
                           std::to_string(stride) + " p" +
                           std::to_string(padding) +
                           (with_bias ? " bias" : " nobias") + " b" +
                           std::to_string(batch) + " " +
                           to_string(backend));
              HybridCore core(options);
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
              // event, bus and buffer counter matches the reference too.
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

TEST(KernelBackends, MatvecPathMatches) {
  const Tensor w = sparse_weight(9, 64, kSparse1of4, 41);
  HybridCore modeled_core;
  HybridCoreOptions raw_options;
  raw_options.backend = KernelBackend::kRaw;
  HybridCore raw_core(raw_options);
  PimMatmulLayer modeled_layer(modeled_core, w, kSparse1of4, PeKind::kSram,
                               0.05f);
  PimMatmulLayer raw_layer(raw_core, w, kSparse1of4, PeKind::kSram, 0.05f);
  Rng rng(43);
  const Tensor x = Tensor::randn(Shape{1, 64}, rng, 0.0f, 1.0f);
  expect_tensors_bit_equal(modeled_layer.matmul(x), raw_layer.matmul(x));
}

TEST(KernelArenaTest, ReusesOneSlabAfterReset) {
  KernelArena arena;
  for (int round = 0; round < 3; ++round) {
    arena.reset();
    auto a = arena.alloc<i32>(1000);
    auto b = arena.alloc<i8>(3333);
    a[999] = 7;
    b[3332] = 1;
    EXPECT_EQ(a.size(), 1000u);
  }
  const size_t reserved = arena.bytes_reserved();
  arena.reset();
  (void)arena.alloc<i32>(1000);
  (void)arena.alloc<i8>(3333);
  // Steady state: no new slabs once the high-water mark is learned.
  EXPECT_EQ(arena.bytes_reserved(), reserved);

  // The same holds for a whole raw forward: every layer's codes,
  // accumulators, flat CSC and tile lists come from the core's arenas,
  // so repeated forwards at one batch size stop reserving heap.
  Rng model_rng(17);
  const TrainTestSplit data = make_synthetic_dataset(tiny_task());
  RepNetModel model(tiny_backbone(),
                    RepNetConfig{.bottleneck_divisor = 8,
                                 .min_bottleneck = 8},
                    3, model_rng);
  PimExecutorOptions options;
  options.backend = KernelBackend::kRaw;
  options.calibration_batch = 8;
  options.calibration_batches = 1;
  PimRepNetExecutor exec(model, data.train, options);
  const Tensor images = data.test.batch_images(0, 4);
  (void)exec.forward(images);
  (void)exec.forward(images);
  const size_t forward_reserved = exec.core().scratch_bytes_reserved();
  EXPECT_GT(forward_reserved, 0u);
  for (int round = 0; round < 3; ++round) {
    (void)exec.forward(images);
    EXPECT_EQ(exec.core().scratch_bytes_reserved(), forward_reserved);
  }
}

/// Entries as the packed kernels store them: padded to an even count
/// with a zero-weight dummy on row 0, weights packed pairwise.
struct PairedEntries {
  std::vector<i32> row;
  std::vector<i32> word;

  PairedEntries(std::vector<i32> rows, std::vector<i8> weights) {
    if (rows.size() % 2 != 0) {
      rows.push_back(0);
      weights.push_back(0);
    }
    row = std::move(rows);
    for (size_t e = 0; e < weights.size(); e += 2) {
      word.push_back(simd::pack_pair(weights[e], weights[e + 1]));
    }
  }
  i64 pairs() const { return static_cast<i64>(word.size()); }
};

using PairMacFn = decltype(RawKernels::pair_mac);
using WidenTransposeFn = decltype(RawKernels::widen_transpose);

void expect_pair_mac_matches_reference(PairMacFn pair_mac, const char* isa) {
  // Rows of INT8-ranged i16 activations at irregular offsets, read from
  // lane 0 up to n; odd entry counts run through the dummy, and the
  // weights include -128 * -128 pairs, the largest products there are.
  Rng rng(7);
  constexpr i64 kRows = 9;
  std::vector<i64> off(kRows);
  for (i64 r = 0; r < kRows; ++r) off[static_cast<size_t>(r)] = r * 41 + r % 3;
  std::vector<i16> x(static_cast<size_t>(kRows * 41 + simd::kMacTile));
  for (i16& v : x) v = static_cast<i16>(rng.uniform_int(-128, 127));
  for (size_t i = 0; i < x.size(); i += 5) x[i] = -128;
  for (const i64 entries : {0, 1, 2, 3, 7, 8, 33}) {
    for (i64 n = 0; n <= simd::kMacTile; ++n) {
      std::vector<i32> rows;
      std::vector<i8> weights;
      for (i64 e = 0; e < entries; ++e) {
        const i64 weight = rng.uniform_int(-128, 127);
        rows.push_back(static_cast<i32>(rng.uniform_int(0, kRows - 1)));
        weights.push_back(static_cast<i8>(e % 4 == 1 ? -128 : weight));
      }
      std::vector<i32> want(static_cast<size_t>(n));
      for (i64 j = 0; j < n; ++j) {
        u32 acc = 0;
        for (size_t e = 0; e < rows.size(); ++e) {
          const i64 at = off[static_cast<size_t>(rows[e])] + j;
          acc += static_cast<u32>(weights[e] * x[static_cast<size_t>(at)]);
        }
        want[static_cast<size_t>(j)] = static_cast<i32>(acc);
      }
      const PairedEntries paired(rows, weights);
      std::vector<i32> out(static_cast<size_t>(simd::kMacTile), 12345);
      pair_mac(out.data(), n, x.data(), paired.row.data(), off.data(),
               paired.word.data(), paired.pairs());
      for (i64 j = 0; j < simd::kMacTile; ++j) {
        const i32 expect = j < n ? want[static_cast<size_t>(j)] : 12345;
        ASSERT_EQ(out[static_cast<size_t>(j)], expect)
            << entries << " entries, n=" << n << ", lane " << j << " on "
            << isa;
      }
    }
  }
}

void expect_pair_mac_wraps(PairMacFn pair_mac, const char* isa) {
  // Every pair adds (-128)(-128) + (-128)(-128) = 2^15, so 65540 pairs
  // carry the i32 accumulators 2^17 past INT32_MAX; the result is the
  // two's-complement wrap of the exact sum, on every lane and tail.
  constexpr i64 kPairs = 65540;
  const std::vector<i16> x(static_cast<size_t>(simd::kMacTile), -128);
  const std::vector<i64> off = {0};
  const std::vector<i32> rows(2 * kPairs, 0);
  const std::vector<i32> words(kPairs, simd::pack_pair(-128, -128));
  const i32 want = static_cast<i32>(static_cast<u32>(kPairs * 32768));
  ASSERT_LT(want, 0);
  for (const i64 n : {1, 7, 8, 17, 31, 32}) {
    std::vector<i32> out(static_cast<size_t>(n));
    pair_mac(out.data(), n, x.data(), rows.data(), off.data(), words.data(),
             kPairs);
    for (i64 j = 0; j < n; ++j) {
      ASSERT_EQ(out[static_cast<size_t>(j)], want)
          << "n=" << n << " lane " << j << " on " << isa;
    }
  }
}

void expect_widen_transpose_matches(WidenTransposeFn widen_transpose,
                                    const char* isa) {
  // Shapes around the 8 x 16 tile: full tiles, row and column edges, and
  // blocks smaller than one tile, over the whole INT8 range.
  Rng rng(5);
  for (const i64 rows : {1, 7, 8, 9, 16, 23, 64}) {
    for (const i64 cols : {1, 15, 16, 17, 28, 72, 145}) {
      std::vector<i8> x(static_cast<size_t>(rows * cols));
      for (i8& v : x) v = static_cast<i8>(rng.uniform_int(-128, 127));
      std::vector<i16> xt(x.size());
      widen_transpose(x.data(), rows, cols, xt.data());
      for (i64 r = 0; r < rows; ++r) {
        for (i64 c = 0; c < cols; ++c) {
          ASSERT_EQ(xt[static_cast<size_t>(c * rows + r)],
                    x[static_cast<size_t>(r * cols + c)])
              << rows << "x" << cols << " at (" << r << ", " << c << ") on "
              << isa;
        }
      }
    }
  }
}

// The simd.h bodies this translation unit inlines (its own build flags'
// ISA, simd::MSH_SIMD_ISA), as any baseline caller gets them.
TEST(SimdTest, PairMacMatchesScalarReferenceOnEveryTileLength) {
  expect_pair_mac_matches_reference(simd::pair_mac, "this unit's bodies");
}

TEST(SimdTest, PairMacWrapsPastInt32Max) {
  expect_pair_mac_wraps(simd::pair_mac, "this unit's bodies");
}

TEST(SimdTest, WidenTransposeMatchesScalar) {
  expect_widen_transpose_matches(simd::widen_transpose, "this unit's bodies");
}

// ----- SIMD quantizer vs the scalar reference -------------------------

/// Quantizes `x` as one row through the shared kernel and checks every
/// code against QuantParams::quantize.
void expect_quantize_matches(const std::vector<f32>& x,
                             const QuantParams& params) {
  std::vector<i8> codes(x.size());
  quantize_activations(x.data(), 1, static_cast<i64>(x.size()),
                       static_cast<i64>(x.size()), params, codes.data());
  for (size_t i = 0; i < x.size(); ++i) {
    ASSERT_EQ(static_cast<i32>(codes[i]), params.quantize(x[i]))
        << "bits " << std::bit_cast<u32>(x[i]) << " on " << simd::kIsa;
  }
}

QuantParams params_for(f32 scale, i32 bits) {
  QuantParams p;
  p.scale = scale;
  p.qmax = (1 << (bits - 1)) - 1;
  p.qmin = -p.qmax;
  return p;
}

TEST(SimdTest, QuantizeMatchesScalarOverFloatBitPatterns) {
  const f32 inf = std::numeric_limits<f32>::infinity();
  const f32 nan = std::numeric_limits<f32>::quiet_NaN();
  std::vector<f32> x = {
      0.0f, -0.0f, inf, -inf, nan, -nan,
      std::bit_cast<f32>(u32{0x7f800001}),  // signaling NaN
      std::numeric_limits<f32>::max(), std::numeric_limits<f32>::lowest(),
      std::numeric_limits<f32>::denorm_min(), 1e30f, -1e30f, 2e8f, -2e8f,
      0.5f, 1.5f, 2.5f, -0.5f, -1.5f, -2.5f, 126.5f, 127.5f, -127.5f,
      2147483648.0f, -2147483648.0f};
  // Every 997th bit pattern: all signs, exponents and NaN payload ranges.
  for (u64 bits = 0; bits <= 0xffffffffu; bits += 997) {
    x.push_back(std::bit_cast<f32>(static_cast<u32>(bits)));
  }
  for (const f32 scale : {1.0f, 0.05f, 1e-3f, 3.7f, 1e-30f, 1e30f}) {
    SCOPED_TRACE("scale " + std::to_string(scale));
    expect_quantize_matches(x, params_for(scale, 8));
  }
  for (i32 bits = 2; bits < 8; ++bits) {
    SCOPED_TRACE("bits " + std::to_string(bits));
    expect_quantize_matches(x, params_for(0.05f, bits));
  }
}

TEST(SimdTest, QuantizeCoversTailsAndPad) {
  // Every length through two full 16-wide bodies plus a tail, with a pad
  // past k, over several rows: codes match the scalar reference and the
  // pad is zero.
  Rng rng(11);
  const QuantParams params = params_for(0.02f, 8);
  for (i64 k = 0; k <= 33; ++k) {
    for (const i64 pad : {0, 3}) {
      const i64 batch = 5, padded_k = k + pad;
      const Tensor x = Tensor::randn(Shape{batch, std::max<i64>(k, 1)}, rng);
      std::vector<i8> codes(static_cast<size_t>(batch * padded_k), 99);
      quantize_activations(x.data(), batch, k, padded_k, params,
                           codes.data());
      for (i64 b = 0; b < batch; ++b) {
        for (i64 i = 0; i < padded_k; ++i) {
          const i32 want = i < k ? params.quantize(x[b * k + i]) : 0;
          ASSERT_EQ(codes[static_cast<size_t>(b * padded_k + i)], want)
              << "k=" << k << " padded_k=" << padded_k << " row " << b
              << " col " << i;
        }
      }
    }
  }
}

// ----- every ISA copy of the raw kernels, called directly ------------

/// One compiled ISA copy of the raw kernels, as a test parameter. It
/// prints as its ISA name: a bare pointer would print its address, which
/// ASLR changes on every run, and gtest_discover_tests folds the printed
/// parameter into each CTest name.
struct IsaCopy {
  const RawKernels* kernels;
};

void PrintTo(const IsaCopy& copy, std::ostream* os) {
  *os << copy.kernels->isa;
}

/// The ISA copies this build compiled (kernels/raw_kernels.h).
std::vector<IsaCopy> compiled_copies() {
#if defined(MSH_RAW_KERNELS_AVX2)
  return {{&isa::sse2::kRawKernels}, {&isa::avx2::kRawKernels}};
#else
  return {{&isa::MSH_SIMD_ISA::kRawKernels}};
#endif
}

/// Each test runs one copy against the scalar references, byte for
/// byte; a copy this CPU cannot run is skipped.
class RawKernelIsaTest : public ::testing::TestWithParam<IsaCopy> {
 protected:
  void SetUp() override {
#if defined(MSH_RAW_KERNELS_AVX2)
    if (GetParam().kernels == &isa::avx2::kRawKernels &&
        !__builtin_cpu_supports("avx2")) {
      GTEST_SKIP() << "this CPU has no AVX2";
    }
#endif
  }
  const RawKernels& copy() const { return *GetParam().kernels; }
};

INSTANTIATE_TEST_SUITE_P(Isa, RawKernelIsaTest,
                         ::testing::ValuesIn(compiled_copies()));

TEST_P(RawKernelIsaTest, PairMacMatchesScalarReference) {
  expect_pair_mac_matches_reference(copy().pair_mac, copy().isa);
  expect_pair_mac_wraps(copy().pair_mac, copy().isa);
}

TEST_P(RawKernelIsaTest, WidenTransposeMatchesScalar) {
  expect_widen_transpose_matches(copy().widen_transpose, copy().isa);
}

/// codes[i] == params.quantize(x[i]) through both code widths of `copy`,
/// and nothing past x.size() is written.
void expect_copy_quantizes(const RawKernels& copy, const std::vector<f32>& x,
                           const QuantParams& params) {
  const size_t n = x.size();
  std::vector<i8> bytes(n + 1, 99);
  std::vector<i16> words(n + 1, 999);
  copy.quantize_i8(x.data(), static_cast<i64>(n), params, bytes.data());
  copy.quantize_i16(x.data(), static_cast<i64>(n), params, words.data());
  for (size_t i = 0; i < n; ++i) {
    const i32 want = params.quantize(x[i]);
    ASSERT_EQ(bytes[i], want) << "i8, n=" << n << ", element " << i
                              << ", bits " << std::bit_cast<u32>(x[i]);
    ASSERT_EQ(words[i], want) << "i16, n=" << n << ", element " << i
                              << ", bits " << std::bit_cast<u32>(x[i]);
  }
  ASSERT_EQ(bytes[n], 99) << "i8 wrote past n=" << n;
  ASSERT_EQ(words[n], 999) << "i16 wrote past n=" << n;
}

TEST_P(RawKernelIsaTest, QuantizeMatchesScalarAtEveryLength) {
  // Every length through the 16-, 8- and 4-wide bodies and their tails.
  // Specials sit at every lane position: ties either side of even,
  // +-inf, NaNs, out-of-range magnitudes, signed zeros and denormals.
  const f32 inf = std::numeric_limits<f32>::infinity();
  const f32 nan = std::numeric_limits<f32>::quiet_NaN();
  const QuantParams params = params_for(0.5f, 8);
  const std::vector<f32> specials = {
      0.25f, 0.75f, 1.25f, -0.25f, -0.75f, 63.25f, 63.75f, -63.75f,
      inf, -inf, nan, -nan, std::bit_cast<f32>(u32{0x7f800001}),
      1e30f, -1e30f, 2e9f, -2e9f, 0.0f, -0.0f,
      std::numeric_limits<f32>::denorm_min(), 64.0f, -64.0f, 200.0f};
  Rng rng(13);
  for (i64 n = 0; n <= 67; ++n) {
    for (size_t shift = 0; shift < specials.size(); shift += 5) {
      std::vector<f32> x(static_cast<size_t>(n));
      for (i64 i = 0; i < n; ++i) {
        x[static_cast<size_t>(i)] =
            i % 3 == 0 ? specials[(static_cast<size_t>(i) + shift) %
                                  specials.size()]
                       : static_cast<f32>(rng.gaussian(0.0, 40.0));
      }
      expect_copy_quantizes(copy(), x, params);
    }
  }
  // And a stride-997 sweep of all float bit patterns, at a small and a
  // large scale.
  std::vector<f32> sweep;
  for (u64 bits = 0; bits <= 0xffffffffu; bits += 997) {
    sweep.push_back(std::bit_cast<f32>(static_cast<u32>(bits)));
  }
  expect_copy_quantizes(copy(), sweep, params_for(1e-3f, 8));
  expect_copy_quantizes(copy(), sweep, params_for(3.7f, 4));
}

/// A random FlatCsc: each column takes each dense row with probability
/// `density`, weights over the whole INT8 range, padded to an even entry
/// count with the zero dummy on row 0 as the packers pad it.
PackedCsc random_packed(i64 cols, i64 dense_rows, f64 density, Rng& rng) {
  PackedCsc p;
  p.cols = cols;
  p.dense_rows = dense_rows;
  p.col_ptr.push_back(0);
  std::vector<i8> weights;
  for (i64 c = 0; c < cols; ++c) {
    for (i64 r = 0; r < dense_rows; ++r) {
      if (!rng.bernoulli(density)) continue;
      p.entry_row.push_back(static_cast<i32>(r));
      weights.push_back(static_cast<i8>(rng.uniform_int(-128, 127)));
    }
    if (p.entry_row.size() % 2 != 0) {
      p.entry_row.push_back(0);
      weights.push_back(0);
    }
    p.col_ptr.push_back(static_cast<i64>(p.entry_row.size()));
  }
  for (size_t e = 0; e < weights.size(); e += 2) {
    p.pair_weight.push_back(simd::pack_pair(weights[e], weights[e + 1]));
  }
  return p;
}

/// out[c * lanes + j] = wrap-32 sum over column c's entries of weight *
/// x[row_off[entry_row] + j]: the scalar reference of both raw kernels.
std::vector<i32> reference_columns(const PackedCsc& w,
                                   const std::vector<i64>& row_off,
                                   const i16* x, i64 lanes) {
  std::vector<i32> out(static_cast<size_t>(w.cols * lanes));
  for (i64 c = 0; c < w.cols; ++c) {
    for (i64 j = 0; j < lanes; ++j) {
      u32 acc = 0;
      for (i64 e = w.col_ptr[static_cast<size_t>(c)];
           e < w.col_ptr[static_cast<size_t>(c) + 1]; ++e) {
        const i32 word = w.pair_weight[static_cast<size_t>(e / 2)];
        const i32 weight = e % 2 == 0 ? static_cast<i16>(word) : word >> 16;
        const i64 row = w.entry_row[static_cast<size_t>(e)];
        acc += static_cast<u32>(weight *
                                x[row_off[static_cast<size_t>(row)] + j]);
      }
      out[static_cast<size_t>(c * lanes + j)] = static_cast<i32>(acc);
    }
  }
  return out;
}

TEST_P(RawKernelIsaTest, RawCscMatmulMatchesScalarReference) {
  // Batches either side of the 32-lane tile and the 64-row block, over
  // random shapes and sparsities, dummies and empty columns included.
  Rng rng(29);
  for (const i64 batch : {1, 5, 31, 32, 33, 64, 65, 97}) {
    const i64 cols = rng.uniform_int(1, 40);
    const i64 dense_rows = rng.uniform_int(1, 150);
    const f64 density = rng.uniform(0.0, 0.6);
    SCOPED_TRACE("batch " + std::to_string(batch) + ", " +
                 std::to_string(cols) + " x " + std::to_string(dense_rows) +
                 ", density " + std::to_string(density));
    const PackedCsc w = random_packed(cols, dense_rows, density, rng);
    std::vector<i8> acts(static_cast<size_t>(batch * dense_rows));
    for (i8& a : acts) a = static_cast<i8>(rng.uniform_int(-128, 127));
    // Column-major i16 copy for the reference: lane j of row r.
    std::vector<i16> xt(acts.size());
    std::vector<i64> row_off(static_cast<size_t>(dense_rows));
    for (i64 r = 0; r < dense_rows; ++r) {
      row_off[static_cast<size_t>(r)] = r * batch;
      for (i64 b = 0; b < batch; ++b) {
        xt[static_cast<size_t>(r * batch + b)] =
            acts[static_cast<size_t>(b * dense_rows + r)];
      }
    }
    const std::vector<i32> want =
        reference_columns(w, row_off, xt.data(), batch);  // [cols x batch]
    KernelArena arena;
    std::vector<i32> out(static_cast<size_t>(batch * cols));
    copy().raw_csc_matmul(w.view(), acts, batch, out, arena);
    for (i64 b = 0; b < batch; ++b) {
      for (i64 c = 0; c < cols; ++c) {
        ASSERT_EQ(out[static_cast<size_t>(b * cols + c)],
                  want[static_cast<size_t>(c * batch + b)])
            << "row " << b << ", column " << c;
      }
    }
  }
}

/// quantize_conv_planes' layout by its definition (kernels/direct_conv.h):
/// the phase planes of the zero-padded images, everything else 0.
std::vector<i16> reference_planes(const std::vector<f32>& x,
                                  const ConvPlanes& g,
                                  const QuantParams& params) {
  std::vector<i16> planes(static_cast<size_t>(g.size()), 0);
  const i64 s = g.stride;
  for (i64 c = 0; c < g.channels; ++c) {
    for (i64 ry = 0; ry < g.phases; ++ry) {
      for (i64 rx = 0; rx < g.phases; ++rx) {
        const i64 plane = 1 + (c * g.phases + ry) * g.phases + rx;
        for (i64 n = 0; n < g.batch; ++n) {
          for (i64 qy = 0; qy < g.plane_h; ++qy) {
            for (i64 qx = 0; qx < g.plane_w; ++qx) {
              const i64 y = s * qy + ry - g.padding;
              const i64 xx = s * qx + rx - g.padding;
              if (y < 0 || y >= g.height || xx < 0 || xx >= g.width) continue;
              const f32 v = x[static_cast<size_t>(
                  ((n * g.channels + c) * g.height + y) * g.width + xx)];
              planes[static_cast<size_t>(plane * g.plane_len +
                                         g.position(n, qy, qx))] =
                  static_cast<i16>(params.quantize(v));
            }
          }
        }
      }
    }
  }
  return planes;
}

TEST_P(RawKernelIsaTest, ConvPlanesAndDirectConvMatchScalarReference) {
  // DirectConvGrid's shapes (every kernel x stride x padding, odd
  // channel counts and non-square inputs, batch 1 / 7 / 32), plus images
  // larger than the 1024-code quantize buffer, which go a row piece at a
  // time — at stride 3 a 1100-wide row in two pieces.
  struct ConvShape {
    i64 kernel, stride, padding, in_ch, out_ch, height, width, batch;
  };
  std::vector<ConvShape> shapes;
  const i64 batches[] = {1, 7, 32};
  const i64 in_chs[] = {3, 5, 7};
  const i64 out_chs[] = {5, 13, 7, 9};
  const std::pair<i64, i64> sizes[] = {{7, 9}, {6, 11}, {9, 5}};
  i64 i = 0;
  for (const i64 kernel : {1, 3, 5}) {
    for (const i64 stride : {1, 2, 3}) {
      for (const i64 padding : {0, 1, 2}) {
        const auto [h, w] = sizes[(i + i / 3) % 3];
        shapes.push_back({kernel, stride, padding, in_chs[(i / 3) % 3],
                          out_chs[i % 4], h, w, batches[i % 3]});
        ++i;
      }
    }
  }
  shapes.push_back({3, 1, 1, 2, 3, 40, 41, 2});
  shapes.push_back({3, 2, 1, 2, 3, 33, 35, 1});
  shapes.push_back({5, 3, 2, 1, 4, 3, 1100, 1});
  // Stride 2 over even widths at batch 32, where each image's columns
  // are split into phases in one pass: the fixture's stage-1 conv and
  // projection, no padding, a kernel wider than the stride, runs of 2,
  // 3 and 12 codes (below, at and past the 4-code vector move), and an
  // image past the quantize buffer.
  shapes.push_back({3, 2, 1, 8, 16, 12, 12, 32});
  shapes.push_back({1, 2, 0, 8, 16, 12, 12, 32});
  shapes.push_back({3, 2, 0, 3, 5, 9, 10, 32});
  shapes.push_back({5, 2, 2, 2, 3, 7, 24, 32});
  shapes.push_back({2, 2, 1, 3, 4, 5, 4, 32});
  shapes.push_back({3, 2, 1, 2, 3, 6, 6, 32});
  shapes.push_back({3, 2, 1, 1, 2, 40, 30, 32});
  const QuantParams params = params_for(0.04f, 8);
  Rng rng(31);
  for (const ConvShape& c : shapes) {
    SCOPED_TRACE("k" + std::to_string(c.kernel) + " s" +
                 std::to_string(c.stride) + " p" + std::to_string(c.padding) +
                 " " + std::to_string(c.in_ch) + "x" +
                 std::to_string(c.height) + "x" + std::to_string(c.width) +
                 " b" + std::to_string(c.batch));
    const ConvPlanes g =
        ConvPlanes::make(c.batch, c.in_ch, c.height, c.width, c.kernel,
                         c.stride, c.padding);
    std::vector<f32> x(
        static_cast<size_t>(c.batch * c.in_ch * c.height * c.width));
    for (f32& v : x) v = static_cast<f32>(rng.gaussian(0.0, 3.0));
    const std::vector<i16> want_planes = reference_planes(x, g, params);
    std::vector<i16> planes(want_planes.size(), 777);
    copy().quantize_conv_planes(x.data(), g, params, planes.data());
    ASSERT_EQ(planes, want_planes);

    // Dense rows past C * k * k (a padded K tail) read the zero plane.
    const i64 dense_rows = (g.k() + 3) / 4 * 4;
    const PackedCsc w = random_packed(c.out_ch, dense_rows, 0.3, rng);
    std::vector<i64> row_off(static_cast<size_t>(dense_rows));
    g.row_offsets(row_off);
    const std::vector<i32> want =
        reference_columns(w, row_off, planes.data(), g.positions);
    KernelArena arena;
    std::vector<i32> out(want.size(), 12345);
    copy().direct_conv(w.view(), planes.data(), g, out.data(), arena);
    ASSERT_EQ(out, want);
  }
}

TEST_P(RawKernelIsaTest, ConvEpilogueMatchesScalarComposition) {
  // Each copy's conv_epilogue against its scalar composition: every row
  // through dequantize_outputs (bias 0.0f when absent), then apply_plane,
  // and for the planes output QuantParams::quantize of those values laid
  // out as quantize_conv_planes lays out an input. All 12 BN x residual x
  // ReLU forms, byte for byte. Scale -1 turns a zero accumulator into
  // -0.0 and 1e30 sends large ones to +-inf; biases, BN channels and the
  // residual carry -0.0, NaN and +-inf; the next conv's scale makes many
  // codes saturate at +-127. Output rows of 1 to 13 lanes cover the
  // vector groups, the repeated last group and the scalar tail. A next
  // conv with the producer's plane geometry takes each channel as one
  // run; the others go row by row. Each case also writes both outputs in
  // one pass (the stem's f32 output and the next conv's codes), which
  // goes row by row: the same bytes as each output alone.
  const f32 inf = std::numeric_limits<f32>::infinity();
  const f32 nan = std::numeric_limits<f32>::quiet_NaN();
  constexpr f32 kEps = 1e-5f;
  constexpr i64 kChannels = 4;
  // Channel 0 keeps -0.0 through BN, channel 1 (negative variance) is
  // all NaN, channel 2 has an infinite gamma, channel 3 is an ordinary
  // affine.
  BatchNorm2d bn(kChannels, 0.1f, kEps);
  bn.set_running_stats(
      Tensor::from_data(Shape{kChannels}, {0.0f, 0.0f, 0.25f, -0.5f}),
      Tensor::from_data(Shape{kChannels}, {1.0f - kEps, -1.0f, 0.5f, 2.0f}));
  bn.params()[0]->value =
      Tensor::from_data(Shape{kChannels}, {1.0f, 1.0f, inf, 1.5f});
  bn.params()[1]->value =
      Tensor::from_data(Shape{kChannels}, {-0.0f, 0.0f, -0.1f, 0.2f});
  const std::vector<f32> bias = {-0.0f, nan, inf, 0.5f};
  Rng rng(43);
  struct Geometry {
    i64 batch, height, width, kernel, padding;
  };
  for (const Geometry geo :
       {Geometry{3, 4, 5, 3, 1}, Geometry{2, 3, 1, 1, 0},
        Geometry{1, 2, 3, 3, 1}, Geometry{2, 5, 7, 1, 0},
        Geometry{7, 6, 6, 3, 1}, Geometry{2, 3, 12, 3, 1},
        Geometry{2, 2, 13, 1, 0}, Geometry{32, 4, 8, 3, 1},
        Geometry{2, 12, 12, 3, 1}}) {
    const ConvPlanes layout =
        ConvPlanes::make(geo.batch, 2, geo.height, geo.width, geo.kernel, 1,
                         geo.padding);
    const Shape out_shape{layout.batch, kChannels, layout.out_h,
                          layout.out_w};
    std::vector<i32> acc(static_cast<size_t>(kChannels * layout.positions));
    for (size_t i = 0; i < acc.size(); ++i) {
      acc[i] = static_cast<i32>(rng.uniform_int(-300, 300));
      if (i % 7 == 0) acc[i] = 0;
      if (i % 11 == 0) acc[i] = i % 2 == 0 ? 1 << 30 : -(1 << 30);
    }
    Tensor residual = Tensor::randn(out_shape, rng);
    for (i64 i = 0; i < residual.numel(); i += 5) {
      const f32 specials[] = {-0.0f, nan, inf, -inf, 0.0f};
      residual[i] = specials[(i / 5) % 5];
    }
    for (const f32 scale : {-1.0f, 0.03f, 1e30f}) {
      for (const bool with_bias : {false, true}) {
        Tensor plain(out_shape);
        const i64 wo = layout.out_w, spatial = layout.out_h * wo;
        for (i64 p = 0; p < layout.batch * kChannels; ++p) {
          const i64 img = p / kChannels, oc = p % kChannels;
          const std::vector<f32> row_bias(
              static_cast<size_t>(wo),
              with_bias ? bias[static_cast<size_t>(oc)] : 0.0f);
          for (i64 oy = 0; oy < layout.out_h; ++oy) {
            dequantize_outputs(acc.data() + oc * layout.positions +
                                   layout.position(img, oy, 0),
                               1, wo, scale, row_bias.data(),
                               plain.data() + p * spatial + oy * wo);
          }
        }
        for (const bool with_bn : {false, true}) {
          for (const bool with_residual : {false, true}) {
            for (const EpilogueRelu relu :
                 {EpilogueRelu::kNone, EpilogueRelu::kPositive,
                  EpilogueRelu::kMax}) {
              SCOPED_TRACE(testing::Message()
                           << "b" << geo.batch << " " << geo.height << "x"
                           << geo.width << " k" << geo.kernel << " scale "
                           << scale << (with_bias ? " bias" : "")
                           << (with_bn ? " bn" : "")
                           << (with_residual ? " residual" : "") << " relu "
                           << static_cast<int>(relu) << " on "
                           << copy().isa);
              const ConvEpilogue epilogue{
                  .bn = with_bn ? &bn : nullptr,
                  .residual = with_residual ? &residual : nullptr,
                  .relu = relu};
              Tensor want = plain;
              epilogue.apply(want);
              KernelArena scratch;
              const EpilogueSteps steps = epilogue.steps(
                  kChannels, with_bias ? bias.data() : nullptr, scratch);

              Tensor got(out_shape, 123.0f);
              EpilogueOutputs to_y;
              to_y.y = got.data();
              copy().conv_epilogue(acc.data(), layout, kChannels, scale,
                                   steps, to_y);
              for (i64 i = 0; i < got.numel(); ++i) {
                ASSERT_EQ(std::bit_cast<u32>(got[i]),
                          std::bit_cast<u32>(want[i]))
                    << "element " << i << ": " << got[i] << " vs "
                    << want[i];
              }

              const std::vector<f32> values(want.data(),
                                            want.data() + want.numel());
              for (const auto& [kernel, padding] :
                   {std::pair<i64, i64>{3, 1}, {1, 0}, {5, 2}}) {
                const ConvPlanes next = ConvPlanes::make(
                    layout.batch, kChannels, layout.out_h, layout.out_w,
                    kernel, 1, padding);
                const QuantParams params = params_for(0.02f, 8);
                std::vector<i16> planes(static_cast<size_t>(next.size()),
                                        777);
                EpilogueOutputs to_planes;
                to_planes.planes = planes.data();
                to_planes.next = &next;
                to_planes.next_params = params;
                copy().conv_epilogue(acc.data(), layout, kChannels, scale,
                                     steps, to_planes);
                ASSERT_EQ(planes, reference_planes(values, next, params))
                    << "next conv k" << kernel << " p" << padding;

                // Both outputs in one pass: the same f32 bytes and codes.
                Tensor both(out_shape, 123.0f);
                std::vector<i16> both_planes(planes.size(), 777);
                EpilogueOutputs to_both = to_planes;
                to_both.y = both.data();
                to_both.planes = both_planes.data();
                copy().conv_epilogue(acc.data(), layout, kChannels, scale,
                                     steps, to_both);
                for (i64 i = 0; i < both.numel(); ++i) {
                  ASSERT_EQ(std::bit_cast<u32>(both[i]),
                            std::bit_cast<u32>(want[i]))
                      << "dual output, element " << i << ", next conv k"
                      << kernel << " p" << padding;
                }
                ASSERT_EQ(both_planes, planes)
                    << "dual output, next conv k" << kernel << " p"
                    << padding;
              }
            }
          }
        }
      }
    }
  }
}

TEST_P(RawKernelIsaTest, AvgPoolPlanesMatchPoolThenQuantize) {
  // Each copy's fused pool against its scalar composition: the pool's
  // FP32 sums (avg_pool_eval's: 0.0f plus the window in row-major order,
  // times 1 / (k * k)), then QuantParams::quantize laid out as
  // quantize_conv_planes lays out the next conv's input. The inputs
  // carry -0.0, NaN, +-inf and values far past the scale, so codes
  // saturate at +-127 and NaN windows map to qmin. Pooled rows of 1 to
  // 13 columns cover the 8- and 4-lane groups, the repeated last group
  // and the scalar tail; the 3 x 3 and stride-1 windows take the
  // element-at-a-time path; next convs with and without padding.
  const f32 inf = std::numeric_limits<f32>::infinity();
  const f32 nan = std::numeric_limits<f32>::quiet_NaN();
  const f32 specials[] = {-0.0f, nan, inf, -inf, 0.0f, 1e6f, -1e6f};
  struct Pool {
    i64 batch, channels, height, width, kernel, stride;
  };
  const QuantParams params = params_for(0.05f, 8);
  Rng rng(53);
  for (const Pool pool :
       {Pool{1, 3, 2, 2, 2, 2}, Pool{7, 2, 12, 12, 2, 2},
        Pool{32, 8, 12, 12, 2, 2}, Pool{2, 3, 6, 15, 2, 2},
        Pool{3, 2, 9, 26, 2, 2}, Pool{2, 2, 4, 18, 2, 2},
        Pool{2, 2, 7, 7, 3, 2}, Pool{2, 3, 5, 6, 2, 1}}) {
    const i64 ho = (pool.height - pool.kernel) / pool.stride + 1;
    const i64 wo = (pool.width - pool.kernel) / pool.stride + 1;
    std::vector<f32> x(static_cast<size_t>(pool.batch * pool.channels *
                                           pool.height * pool.width));
    for (size_t i = 0; i < x.size(); ++i) {
      x[i] = static_cast<f32>(rng.gaussian(0.0, 4.0));
      if (i % 13 == 0) x[i] = specials[(i / 13) % 7];
    }
    const f32 inv = 1.0f / static_cast<f32>(pool.kernel * pool.kernel);
    std::vector<f32> pooled;
    for (i64 p = 0; p < pool.batch * pool.channels; ++p) {
      const f32* plane = x.data() + p * pool.height * pool.width;
      for (i64 oy = 0; oy < ho; ++oy) {
        for (i64 ox = 0; ox < wo; ++ox) {
          f32 sum = 0.0f;
          for (i64 ky = 0; ky < pool.kernel; ++ky) {
            for (i64 kx = 0; kx < pool.kernel; ++kx) {
              sum += plane[(oy * pool.stride + ky) * pool.width +
                           ox * pool.stride + kx];
            }
          }
          pooled.push_back(sum * inv);
        }
      }
    }
    for (const auto& [kernel, padding] :
         {std::pair<i64, i64>{1, 0}, {3, 1}}) {
      SCOPED_TRACE(testing::Message()
                   << "b" << pool.batch << " " << pool.channels << "x"
                   << pool.height << "x" << pool.width << " pool k"
                   << pool.kernel << " s" << pool.stride << ", next conv k"
                   << kernel << " p" << padding << " on " << copy().isa);
      const ConvPlanes next = ConvPlanes::make(
          pool.batch, pool.channels, ho, wo, kernel, 1, padding);
      std::vector<i16> planes(static_cast<size_t>(next.size()), 777);
      copy().avg_pool_planes(x.data(), pool.height, pool.width, pool.kernel,
                             pool.stride, next, params, planes.data());
      ASSERT_EQ(planes, reference_planes(pooled, next, params));
    }
  }
}

// ----- executor-level differential: full model, protection, images ----

class BackendExecutorTest : public ::testing::Test {
 protected:
  static PimExecutorOptions options_for(KernelBackend backend, EccMode ecc) {
    PimExecutorOptions options;
    options.backend = backend;
    options.ecc = ecc;
    options.calibration_batch = 8;
    options.calibration_batches = 1;
    return options;
  }

  void SetUp() override {
    rng_ = std::make_unique<Rng>(17);
    data_ = make_synthetic_dataset(tiny_task());
    model_ = std::make_unique<RepNetModel>(
        tiny_backbone(),
        RepNetConfig{.bottleneck_divisor = 8, .min_bottleneck = 8}, 3,
        *rng_);
  }

  std::unique_ptr<Rng> rng_;
  TrainTestSplit data_;
  std::unique_ptr<RepNetModel> model_;
};

TEST_F(BackendExecutorTest, ForwardAndImageBitExactPerProtectionMode) {
  const Tensor images = data_.test.batch_images(0, 4);
  for (const EccMode ecc :
       {EccMode::kNone, EccMode::kParity, EccMode::kSecDed}) {
    SCOPED_TRACE("ecc mode " + std::to_string(static_cast<int>(ecc)));
    PimRepNetExecutor modeled(*model_, data_.train,
                              options_for(KernelBackend::kModeled, ecc));
    PimRepNetExecutor raw(*model_, data_.train,
                          options_for(KernelBackend::kRaw, ecc));
    expect_tensors_bit_equal(modeled.forward(images), raw.forward(images));
    // Published images are part of the bit-exactness contract.
    EXPECT_EQ(modeled.export_image().serialize(),
              raw.export_image().serialize());
  }
}

TEST_F(BackendExecutorTest, FaultInjectionAndScrubCompose) {
  // The raw backend reads the live cells every dispatch, so identical
  // fault injections must corrupt both backends identically, and a
  // repairing scrub must restore both identically.
  const Tensor images = data_.test.batch_images(0, 4);
  PimRepNetExecutor modeled(
      *model_, data_.train,
      options_for(KernelBackend::kModeled, EccMode::kSecDed));
  PimRepNetExecutor raw(*model_, data_.train,
                        options_for(KernelBackend::kRaw, EccMode::kSecDed));

  const MtjFaultModel faults = MtjFaultModel::symmetric(2e-3);
  Rng modeled_rng(99), raw_rng(99);
  modeled.inject_nvm_faults(faults, modeled_rng);
  raw.inject_nvm_faults(faults, raw_rng);
  expect_tensors_bit_equal(modeled.forward(images), raw.forward(images));

  modeled.scrub(/*repair_detected_from_golden=*/true);
  raw.scrub(/*repair_detected_from_golden=*/true);
  expect_tensors_bit_equal(modeled.forward(images), raw.forward(images));
}

TEST_F(BackendExecutorTest, RawReplicaPassesVerifyGateAndClones) {
  const Tensor images = data_.test.batch_images(0, 4);
  PimRepNetExecutor modeled(
      *model_, data_.train,
      options_for(KernelBackend::kModeled, EccMode::kSecDed));
  PimRepNetExecutor raw(*model_, data_.train,
                        options_for(KernelBackend::kRaw, EccMode::kSecDed));
  // The physical read-back probe runs through the raw matvec path and
  // must match the modeled executor's exported image bit-exactly.
  EXPECT_EQ(raw.verify_against(modeled.export_image()), "");
  // Clones (the heal/swap/recovery rebuild path) inherit the backend and
  // stay bit-identical.
  const auto clone = raw.clone();
  expect_tensors_bit_equal(raw.forward(images), clone->forward(images));
  EXPECT_EQ(clone->core().last_makespan(), 0);
}

// ----- zero-copy batch assembly --------------------------------------

detail::PendingRequest make_request(u64 id, i64 rows) {
  detail::PendingRequest request;
  request.id = id;
  request.rows = rows;
  Rng rng(id);
  request.images = Tensor::randn(Shape{rows, 1, 4, 4}, rng);
  return request;
}

TEST(AssembleBatchImages, SingleRequestMovesWithoutCopy) {
  MicroBatch batch;
  batch.requests.push_back(make_request(1, 3));
  batch.rows = 3;
  const f32* payload = batch.requests.front().images.data();
  const f32 first = payload[0];
  assemble_batch_images(batch);
  // Zero-copy: the batch adopted the request's buffer, no reallocation.
  EXPECT_EQ(batch.images.data(), payload);
  EXPECT_EQ(batch.images[0], first);
  EXPECT_TRUE(batch.requests.front().images.empty());
}

TEST(AssembleBatchImages, MultiRequestGathersContiguously) {
  MicroBatch batch;
  batch.requests.push_back(make_request(1, 2));
  batch.requests.push_back(make_request(2, 3));
  batch.rows = 5;
  const Tensor copy0 = batch.requests[0].images;
  const Tensor copy1 = batch.requests[1].images;
  assemble_batch_images(batch);
  ASSERT_EQ(batch.images.shape(), Shape({5, 1, 4, 4}));
  for (i64 i = 0; i < copy0.numel(); ++i) {
    ASSERT_EQ(batch.images[i], copy0[i]);
  }
  for (i64 i = 0; i < copy1.numel(); ++i) {
    ASSERT_EQ(batch.images[copy0.numel() + i], copy1[i]);
  }
  // Multi-request batches keep the originals (needed for retries).
  EXPECT_FALSE(batch.requests[0].images.empty());
}

}  // namespace
}  // namespace msh
