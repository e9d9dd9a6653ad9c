// End-to-end functional tests of the hybrid core: deploy -> matvec must
// be bit-exact against the quantized reference on both PE types.
#include <gtest/gtest.h>

#include <algorithm>

#include "arch/accelerator.h"

namespace msh {
namespace {

QuantizedNmMatrix random_matrix(i64 k, i64 c, NmConfig cfg, u64 seed) {
  Rng rng(seed);
  Tensor w = Tensor::randn(Shape{k, c}, rng);
  NmMask mask = select_nm_mask(w, cfg, GroupAxis::kRows);
  apply_mask(w, mask);
  return QuantizedNmMatrix::from_packed(NmPackedMatrix::pack(w, cfg));
}

std::vector<i8> random_activations(i64 len, u64 seed) {
  Rng rng(seed);
  std::vector<i8> act(static_cast<size_t>(len));
  for (auto& v : act) v = static_cast<i8>(rng.uniform_int(-128, 127));
  return act;
}

TEST(HybridCore, SramDeploymentBitExact) {
  HybridCore core;
  const QuantizedNmMatrix w = random_matrix(512, 24, kSparse1of4, 1);
  const i64 handle = core.deploy_sram(w);
  const auto act = random_activations(512, 2);
  const auto got = core.matvec(handle, act);
  const auto ref = w.reference_matvec(act);
  EXPECT_EQ(got, ref);
}

TEST(HybridCore, MramDeploymentBitExact) {
  HybridCore core;
  const QuantizedNmMatrix w = random_matrix(2048, 16, kSparse1of8, 3);
  const i64 handle = core.deploy_mram(w);
  const auto act = random_activations(2048, 4);
  const auto got = core.matvec(handle, act);
  const auto ref = w.reference_matvec(act);
  EXPECT_EQ(got, ref);
}

TEST(HybridCore, BothPathsCoexist) {
  // The hybrid composition of Fig 6: a frozen layer on MRAM and a
  // learnable layer on SRAM, chained functionally.
  HybridCore core;
  const QuantizedNmMatrix frozen = random_matrix(256, 32, kSparse1of4, 5);
  const QuantizedNmMatrix learnable = random_matrix(32, 8, kSparse1of4, 6);
  const i64 h_frozen = core.deploy_mram(frozen);
  const i64 h_learn = core.deploy_sram(learnable);

  const auto act = random_activations(256, 7);
  const auto mid = core.matvec(h_frozen, act);
  // Requantize the intermediate to INT8 (the activation buffer width).
  std::vector<i8> mid8(mid.size());
  for (size_t i = 0; i < mid.size(); ++i)
    mid8[i] = static_cast<i8>(std::clamp(mid[i] / 1024, -128, 127));
  const auto out = core.matvec(h_learn, mid8);
  EXPECT_EQ(out, learnable.reference_matvec(mid8));
}

TEST(HybridCore, BatchedMatmul) {
  HybridCore core;
  const QuantizedNmMatrix w = random_matrix(128, 8, kSparse1of4, 8);
  const i64 handle = core.deploy_sram(w);
  const i64 batch = 3;
  const auto act = random_activations(128 * batch, 9);
  const auto got = core.matmul(handle, act, batch);
  ASSERT_EQ(got.size(), static_cast<size_t>(batch * 8));
  for (i64 b = 0; b < batch; ++b) {
    const auto row = std::span<const i8>(act).subspan(
        static_cast<size_t>(b * 128), 128);
    const auto ref = w.reference_matvec(row);
    for (i64 c = 0; c < 8; ++c)
      EXPECT_EQ(got[static_cast<size_t>(b * 8 + c)],
                ref[static_cast<size_t>(c)]);
  }
}

TEST(HybridCore, EventsAccumulate) {
  HybridCore core;
  const QuantizedNmMatrix w = random_matrix(512, 8, kSparse1of4, 10);
  const i64 handle = core.deploy_sram(w);
  const auto act = random_activations(512, 11);
  core.matvec(handle, act);
  const PeEventCounts once = core.pe_events();
  core.matvec(handle, act);
  const PeEventCounts twice = core.pe_events();
  EXPECT_EQ(twice.sram_array_cycles, 2 * once.sram_array_cycles);
  EXPECT_GT(once.sram_adder_tree_ops, 0);
}

TEST(HybridCore, ResetEventsClearsCounters) {
  HybridCore core;
  const QuantizedNmMatrix w = random_matrix(128, 8, kSparse1of4, 12);
  const i64 handle = core.deploy_sram(w);
  core.matvec(handle, random_activations(128, 13));
  core.reset_events();
  const PeEventCounts events = core.pe_events();
  EXPECT_EQ(events.sram_array_cycles, 0);
  EXPECT_EQ(core.shared_accumulator_ops(), 0);
}

TEST(HybridCore, BusTracksWeightAndActivationTraffic) {
  HybridCore core;
  const QuantizedNmMatrix w = random_matrix(128, 8, kSparse1of4, 14);
  const i64 before = core.bus().bits_moved();
  const i64 handle = core.deploy_sram(w);
  EXPECT_GT(core.bus().bits_moved(), before);
  const i64 after_deploy = core.bus().bits_moved();
  core.matvec(handle, random_activations(128, 15));
  EXPECT_GE(core.bus().bits_moved(), after_deploy + 128 * 8);
}

TEST(HybridCore, MakespanReflectsPoolSize) {
  // Fewer physical PEs -> larger makespan for the same tile set.
  HybridCore::Options small;
  small.sram_pe_pool = 1;
  HybridCore::Options large;
  large.sram_pe_pool = 8;
  const QuantizedNmMatrix w = random_matrix(512, 64, kSparse1of4, 16);
  const auto act = random_activations(512, 17);

  HybridCore core_small(small), core_large(large);
  core_small.matvec(core_small.deploy_sram(w), act);
  core_large.matvec(core_large.deploy_sram(w), act);
  EXPECT_GT(core_small.last_makespan(), core_large.last_makespan());
  EXPECT_LE(core_large.last_utilization(), 1.0);

  // Rows stream through the same tiles one after another, on both PE
  // kinds: batch B takes B x the one-row makespan, at the same
  // utilization.
  const QuantizedNmMatrix frozen = random_matrix(2048, 16, kSparse1of8, 20);
  for (const bool sram : {true, false}) {
    HybridCore core;
    const QuantizedNmMatrix& m = sram ? w : frozen;
    const i64 handle = sram ? core.deploy_sram(m) : core.deploy_mram(m);
    core.matvec(handle, random_activations(m.dense_rows(), 21));
    const i64 one_row = core.last_makespan();
    const f64 utilization = core.last_utilization();
    ASSERT_GT(one_row, 0);
    for (const i64 batch : {2, 7, 32}) {
      core.matmul(handle, random_activations(batch * m.dense_rows(), 22),
                  batch);
      EXPECT_EQ(core.last_makespan(), batch * one_row)
          << (sram ? "sram" : "mram") << " batch " << batch;
      EXPECT_EQ(core.last_utilization(), utilization);
    }
  }
}

TEST(HybridCore, SharedAccumulatorMergesCrossPeSpill) {
  // A matrix tall enough that one column's segments land in different
  // tiles exercises the core-level shared accumulator.
  HybridCore core;
  const QuantizedNmMatrix w = random_matrix(8192, 12, kSparse1of4, 18);
  const i64 handle = core.deploy_sram(w);
  const auto act = random_activations(8192, 19);
  const auto got = core.matvec(handle, act);
  EXPECT_EQ(got, w.reference_matvec(act));
  EXPECT_GT(core.shared_accumulator_ops(), 0);
}

TEST(HybridCore, InvalidHandleRejected) {
  HybridCore core;
  const std::vector<i8> act(8, 0);
  EXPECT_THROW(core.matvec(0, act), ContractError);
}

}  // namespace
}  // namespace msh
