#include <gtest/gtest.h>

#include <ostream>

#include "sparse/nm_packed.h"
#include "sparse/sparse_ops.h"
#include "tensor/ops.h"

namespace msh {

/// Prints a config as its pattern ("1:4"): gtest_discover_tests folds the
/// printed parameter into each CTest name, and a struct without a
/// printer prints as raw object bytes. Declared in NmConfig's namespace,
/// where gtest's lookup finds it.
void PrintTo(const NmConfig& cfg, std::ostream* os) {
  *os << cfg.n << ":" << cfg.m;
}

namespace {

Tensor masked_random(Shape shape, NmConfig cfg, Rng& rng) {
  Tensor w = Tensor::randn(shape, rng);
  NmMask mask = select_nm_mask(w, cfg, GroupAxis::kRows);
  apply_mask(w, mask);
  return w;
}

class PackedSweep : public ::testing::TestWithParam<NmConfig> {};

TEST_P(PackedSweep, RoundTripThroughPackedForm) {
  const NmConfig cfg = GetParam();
  Rng rng(static_cast<u64>(cfg.n * 31 + cfg.m));
  Tensor w = masked_random(Shape{i64{8} * cfg.m, 10}, cfg, rng);
  NmPackedMatrix packed = NmPackedMatrix::pack(w, cfg);
  EXPECT_EQ(packed.packed_rows(), w.shape()[0] / cfg.m * cfg.n);
  EXPECT_TRUE(allclose(packed.to_dense(), w, 0.0f, 0.0f));
}

TEST_P(PackedSweep, LeftMatmulMatchesDenseAndSkipOracle) {
  const NmConfig cfg = GetParam();
  Rng rng(static_cast<u64>(cfg.n * 77 + cfg.m));
  Tensor w = masked_random(Shape{i64{4} * cfg.m, 6}, cfg, rng);
  NmPackedMatrix packed = NmPackedMatrix::pack(w, cfg);
  Tensor x = Tensor::randn(Shape{3, w.shape()[0]}, rng);

  Tensor dense_ref = matmul(x, w);          // Fig 2-1 dense path
  Tensor skip_ref = masked_matmul(x, w);    // Fig 2-2 explicit skip
  Tensor packed_out = packed.left_matmul(x);

  EXPECT_TRUE(allclose(packed_out, dense_ref, 1e-4f, 1e-5f));
  EXPECT_TRUE(allclose(packed_out, skip_ref, 1e-4f, 1e-5f));
}

TEST_P(PackedSweep, IndexFieldStaysInGroupRange) {
  const NmConfig cfg = GetParam();
  Rng rng(static_cast<u64>(cfg.n * 13 + cfg.m));
  Tensor w = masked_random(Shape{i64{4} * cfg.m, 5}, cfg, rng);
  NmPackedMatrix packed = NmPackedMatrix::pack(w, cfg);
  for (i64 p = 0; p < packed.packed_rows(); ++p) {
    for (i64 c = 0; c < packed.cols(); ++c) {
      EXPECT_GE(packed.index(p, c), 0);
      EXPECT_LT(packed.index(p, c), cfg.m);
      const i64 abs_row = packed.absolute_row(p, c);
      EXPECT_GE(abs_row, (p / cfg.n) * cfg.m);
      EXPECT_LT(abs_row, (p / cfg.n + 1) * cfg.m);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, PackedSweep,
                         ::testing::Values(NmConfig{1, 4}, NmConfig{1, 8},
                                           NmConfig{1, 16}, NmConfig{2, 4},
                                           NmConfig{2, 8}, NmConfig{4, 8},
                                           NmConfig{4, 16}, NmConfig{3, 8}));

TEST(NmPacked, RejectsOverfullGroup) {
  // Two non-zeros in a 1:4 group must be rejected.
  Tensor w = Tensor::from_data(Shape{4, 1}, {1.0f, 2.0f, 0.0f, 0.0f});
  EXPECT_THROW(NmPackedMatrix::pack(w, kSparse1of4), ContractError);
}

TEST(NmPacked, RejectsIndivisibleRows) {
  Tensor w(Shape{6, 2});
  EXPECT_THROW(NmPackedMatrix::pack(w, kSparse1of4), ContractError);
}

TEST(NmPacked, PaddedSlotsAreInert) {
  // "At most N": a group with zero survivors packs as padding that
  // contributes nothing.
  Tensor w(Shape{8, 1});
  w[0] = 3.0f;  // only group 0 has a survivor
  NmPackedMatrix packed = NmPackedMatrix::pack(w, kSparse1of4);
  Tensor x = Tensor::full(Shape{1, 8}, 1.0f);
  Tensor y = packed.left_matmul(x);
  EXPECT_FLOAT_EQ(y[0], 3.0f);
}

TEST(NmPacked, StorageBitsMatchPaperAccounting) {
  Rng rng(9);
  Tensor w = masked_random(Shape{32, 8}, kSparse1of4, rng);
  NmPackedMatrix packed = NmPackedMatrix::pack(w, kSparse1of4);
  // 1:4 with INT8: (8 + 2) bits per slot, 1/4 the slots.
  EXPECT_EQ(packed.storage_bits(8), 32 / 4 * 8 * (8 + 2));
  EXPECT_EQ(packed.dense_storage_bits(8), 32 * 8 * 8);
  EXPECT_LT(packed.storage_bits(8), packed.dense_storage_bits(8));
}

TEST(OpCounts, SparseReductionMatchesDensity) {
  Rng rng(10);
  Tensor w = masked_random(Shape{32, 8}, kSparse1of4, rng);
  NmPackedMatrix packed = NmPackedMatrix::pack(w, kSparse1of4);
  OpCounts counts = count_ops(packed, 5);
  EXPECT_EQ(counts.dense_macs, 5 * 32 * 8);
  EXPECT_EQ(counts.sparse_macs, 5 * 8 * 8);
  EXPECT_DOUBLE_EQ(counts.reduction(), 0.25);
}

}  // namespace
}  // namespace msh
