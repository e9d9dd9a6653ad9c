#include <gtest/gtest.h>

#include <ostream>

#include "sparse/nm_mask.h"

namespace msh {
namespace {

TEST(NmConfig, DensityAndIndexBits) {
  EXPECT_DOUBLE_EQ(kSparse1of4.density(), 0.25);
  EXPECT_DOUBLE_EQ(kSparse1of4.sparsity(), 0.75);
  EXPECT_DOUBLE_EQ(kSparse1of8.density(), 0.125);
  EXPECT_EQ(kSparse1of4.index_bits(), 2);
  EXPECT_EQ(kSparse1of8.index_bits(), 3);
  EXPECT_EQ((NmConfig{1, 16}).index_bits(), 4);
  EXPECT_EQ((NmConfig{2, 4}).index_bits(), 2);
}

TEST(NmConfig, Validity) {
  EXPECT_TRUE((NmConfig{1, 4}).valid());
  EXPECT_TRUE((NmConfig{4, 4}).valid());
  EXPECT_FALSE((NmConfig{0, 4}).valid());
  EXPECT_FALSE((NmConfig{5, 4}).valid());
  EXPECT_FALSE((NmConfig{1, 1}).valid());
}

TEST(NmMask, RequiresDivisibleExtent) {
  EXPECT_NO_THROW(NmMask(Shape{8, 3}, kSparse1of4, GroupAxis::kRows));
  EXPECT_THROW(NmMask(Shape{7, 3}, kSparse1of4, GroupAxis::kRows),
               ContractError);
  EXPECT_NO_THROW(NmMask(Shape{3, 8}, kSparse1of4, GroupAxis::kCols));
  EXPECT_THROW(NmMask(Shape{3, 7}, kSparse1of4, GroupAxis::kCols),
               ContractError);
}

TEST(SelectNmMask, KeepsExactlyNPerGroup) {
  Rng rng(1);
  Tensor w = Tensor::randn(Shape{16, 4}, rng);
  NmMask mask = select_nm_mask(w, kSparse1of4, GroupAxis::kRows);
  EXPECT_TRUE(mask.satisfies_pattern());
  EXPECT_EQ(mask.count_kept(), 16 * 4 / 4);
}

TEST(SelectNmMask, KeepsLargestMagnitude) {
  Tensor w = Tensor::from_data(Shape{4, 1}, {0.1f, -5.0f, 0.3f, 0.2f});
  NmMask mask = select_nm_mask(w, kSparse1of4, GroupAxis::kRows);
  EXPECT_FALSE(mask.kept(0));
  EXPECT_TRUE(mask.kept(1));  // |-5| is the group max
  EXPECT_FALSE(mask.kept(2));
  EXPECT_FALSE(mask.kept(3));
}

TEST(SelectNmMask, DeterministicTieBreak) {
  Tensor w = Tensor::full(Shape{4, 1}, 1.0f);
  NmMask a = select_nm_mask(w, kSparse1of4, GroupAxis::kRows);
  NmMask b = select_nm_mask(w, kSparse1of4, GroupAxis::kRows);
  for (i64 i = 0; i < 4; ++i) EXPECT_EQ(a.kept(i), b.kept(i));
  EXPECT_TRUE(a.kept(0));  // stable sort keeps the first on ties
}

struct NmCase {
  i32 n;
  i32 m;
  GroupAxis axis;
};

/// Prints a case as its pattern and axis ("1:4 rows"):
/// gtest_discover_tests folds the printed parameter into each CTest
/// name, and a struct without a printer prints as raw object bytes.
void PrintTo(const NmCase& c, std::ostream* os) {
  *os << c.n << ":" << c.m
      << (c.axis == GroupAxis::kRows ? " rows" : " cols");
}

class NmSweep : public ::testing::TestWithParam<NmCase> {};

TEST_P(NmSweep, PatternHoldsForRandomTensors) {
  const NmCase c = GetParam();
  const NmConfig cfg{c.n, c.m};
  Rng rng(static_cast<u64>(c.n * 100 + c.m));
  const Shape shape =
      c.axis == GroupAxis::kRows ? Shape{i64{4} * c.m, 6} : Shape{6, i64{4} * c.m};
  Tensor w = Tensor::randn(shape, rng);
  NmMask mask = select_nm_mask(w, cfg, c.axis);
  EXPECT_TRUE(mask.satisfies_pattern());
  EXPECT_EQ(mask.count_kept(), shape.numel() * c.n / c.m);

  apply_mask(w, mask);
  EXPECT_NEAR(measured_sparsity(w), cfg.sparsity(), 1e-9);
  // Re-packing after masking still satisfies the pattern.
  NmMask again = select_nm_mask(w, cfg, c.axis);
  EXPECT_TRUE(again.satisfies_pattern());
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, NmSweep,
    ::testing::Values(NmCase{1, 4, GroupAxis::kRows},
                      NmCase{1, 8, GroupAxis::kRows},
                      NmCase{1, 16, GroupAxis::kRows},
                      NmCase{2, 4, GroupAxis::kRows},
                      NmCase{2, 8, GroupAxis::kRows},
                      NmCase{4, 8, GroupAxis::kRows},
                      NmCase{4, 16, GroupAxis::kRows},
                      NmCase{1, 4, GroupAxis::kCols},
                      NmCase{1, 8, GroupAxis::kCols},
                      NmCase{2, 4, GroupAxis::kCols},
                      NmCase{2, 16, GroupAxis::kCols}));

TEST(SaliencyScores, MagnitudeOnlyWithoutGrad) {
  Tensor w = Tensor::from_data(Shape{1, 2}, {-2.0f, 1.0f});
  Tensor s = saliency_scores(w, Tensor{});
  EXPECT_FLOAT_EQ(s[0], 2.0f);
  EXPECT_FLOAT_EQ(s[1], 1.0f);
}

TEST(SaliencyScores, GradientBoostsImportance) {
  Tensor w = Tensor::from_data(Shape{1, 2}, {1.0f, 1.0f});
  Tensor g = Tensor::from_data(Shape{1, 2}, {0.0f, 3.0f});
  Tensor s = saliency_scores(w, g);
  EXPECT_FLOAT_EQ(s[0], 1.0f);
  EXPECT_FLOAT_EQ(s[1], 4.0f);
}

TEST(ApplyMask, ZeroesPrunedOnly) {
  Tensor w = Tensor::full(Shape{4, 1}, 2.0f);
  w[1] = 9.0f;
  NmMask mask = select_nm_mask(w, kSparse1of4, GroupAxis::kRows);
  apply_mask(w, mask);
  EXPECT_FLOAT_EQ(w[1], 9.0f);
  EXPECT_FLOAT_EQ(w[0], 0.0f);
  EXPECT_FLOAT_EQ(w[2], 0.0f);
}

TEST(MeasuredSparsity, CountsZeros) {
  Tensor t = Tensor::from_data(Shape{4}, {0, 1, 0, 2});
  EXPECT_DOUBLE_EQ(measured_sparsity(t), 0.5);
}

}  // namespace
}  // namespace msh
