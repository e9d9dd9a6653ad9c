#include <gtest/gtest.h>

#include "kernels/adder_tree.h"
#include "kernels/index_unit.h"
#include "kernels/shift_acc.h"

namespace msh {
namespace {

TEST(AdderTree, DepthIsLog2) {
  EXPECT_EQ(AdderTree(128).depth(), 7);
  EXPECT_EQ(AdderTree(64).depth(), 6);
  EXPECT_EQ(AdderTree(100).depth(), 7);
  EXPECT_EQ(AdderTree(1).depth(), 0);
}

TEST(ShiftAccumulator, UnsignedBitWeights) {
  ShiftAccumulator acc(8);
  // value 5 = 101b streamed as bit planes of partial sum 1.
  acc.accumulate(1, 0);
  acc.accumulate(1, 2);
  EXPECT_EQ(acc.value(), 5);
}

TEST(ShiftAccumulator, MsbPlaneIsNegative) {
  // Two's complement: plane 7 carries weight -128.
  ShiftAccumulator acc(8);
  acc.accumulate(1, 7);
  EXPECT_EQ(acc.value(), -128);
  acc.reset();
  // -1 = all bit planes set.
  for (i32 b = 0; b < 8; ++b) acc.accumulate(1, b);
  EXPECT_EQ(acc.value(), -1);
}

TEST(ShiftAccumulator, ReconstructsSignedProductSums) {
  // Streaming x bit-serially and accumulating w per set bit equals w*x
  // for any signed INT8 x.
  for (i32 x = -128; x <= 127; ++x) {
    const i32 w = 37;
    ShiftAccumulator acc(8);
    for (i32 b = 0; b < 8; ++b) {
      const bool bit = (static_cast<u32>(x) >> b) & 1;
      acc.accumulate(bit ? w : 0, b);
    }
    EXPECT_EQ(acc.value(), static_cast<i64>(w) * x) << "x=" << x;
  }
}

TEST(ShiftAccumulator, BitRangeChecked) {
  ShiftAccumulator acc(8);
  EXPECT_THROW(acc.accumulate(1, 8), ContractError);
  EXPECT_THROW(acc.accumulate(1, -1), ContractError);
}

TEST(IndexGenerator, CyclesThroughPeriod) {
  IndexGenerator gen(4);
  std::vector<i32> seen;
  for (int i = 0; i < 8; ++i) {
    seen.push_back(gen.current());
    gen.step();
  }
  EXPECT_EQ(seen, (std::vector<i32>{0, 1, 2, 3, 0, 1, 2, 3}));
}

TEST(IndexGenerator, ResetReturnsToZero) {
  IndexGenerator gen(8);
  gen.step();
  gen.step();
  gen.reset();
  EXPECT_EQ(gen.current(), 0);
}

TEST(ComparatorColumn, MatchesStoredIndices) {
  const ComparatorColumn comp(4);
  const std::vector<u8> stored{0, 1, 2, 1};
  const std::vector<u8> valid{1, 1, 1, 1};
  std::vector<u8> match(4, 7);
  comp.compare(stored, valid, 1, match);
  EXPECT_EQ(match, (std::vector<u8>{0, 1, 0, 1}));
}

TEST(ComparatorColumn, InvalidRowsNeverMatch) {
  const ComparatorColumn comp(3);
  const std::vector<u8> stored{2, 2, 2};
  const std::vector<u8> valid{1, 0, 1};
  std::vector<u8> match(3, 7);
  comp.compare(stored, valid, 2, match);
  EXPECT_EQ(match, (std::vector<u8>{1, 0, 1}));
}

TEST(ComparatorColumn, ComparesASegmentOfTheColumn) {
  // One adder-tree segment of a 128-row group compares on its own; a run
  // taller than the column, or a mask of another length, is rejected.
  const ComparatorColumn comp(128);
  const std::vector<u8> stored{3, 0, 3, 1};
  const std::vector<u8> valid(4, 1);
  std::vector<u8> match(4);
  comp.compare(stored, valid, 3, match);
  EXPECT_EQ(match, (std::vector<u8>{1, 0, 1, 0}));
  std::vector<u8> short_mask(3);
  EXPECT_THROW(comp.compare(stored, valid, 3, short_mask), ContractError);
  const std::vector<u8> tall(129, 0);
  std::vector<u8> tall_match(129);
  EXPECT_THROW(comp.compare(tall, tall, 0, tall_match), ContractError);
}

}  // namespace
}  // namespace msh
