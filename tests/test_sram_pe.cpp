// Bit-exactness of the bit-serial SRAM sparse PE against the quantized
// integer reference, across N:M configurations, segmentation, vertical
// spill, and the write path.
#include <gtest/gtest.h>

#include <map>

#include "kernels/adder_tree.h"
#include "mapping/csc_mapper.h"
#include "pim/sram_pe.h"

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

/// Runs every tile through a PE and merges outputs by logical column.
std::vector<i64> run_tiles(const std::vector<SramPeTile>& tiles, i64 cols,
                           std::span<const i8> act,
                           PeEventCounts* events = nullptr) {
  std::vector<i64> out(static_cast<size_t>(cols), 0);
  for (const auto& tile : tiles) {
    SramSparsePe pe;
    pe.load(tile);
    const SramPeOutput y = pe.matvec(act);
    for (size_t i = 0; i < y.output_ids.size(); ++i)
      out[static_cast<size_t>(y.output_ids[i])] += y.values[i];
    if (events) *events += pe.events();
  }
  return out;
}

struct PeCase {
  i32 n, m;
  i64 k, c;
};

/// Prints a case as its pattern and shape ("1:4 k=64 c=8"):
/// gtest_discover_tests folds the printed parameter into each CTest
/// name, and a struct without a printer prints as raw object bytes.
void PrintTo(const PeCase& pc, std::ostream* os) {
  *os << pc.n << ":" << pc.m << " k=" << pc.k << " c=" << pc.c;
}

class SramPeSweep : public ::testing::TestWithParam<PeCase> {};

TEST_P(SramPeSweep, BitExactAgainstReference) {
  const PeCase pc = GetParam();
  const NmConfig cfg{pc.n, pc.m};
  const QuantizedNmMatrix w =
      random_matrix(pc.k, pc.c, cfg, static_cast<u64>(pc.k * 131 + pc.c));
  const auto act = random_activations(pc.k, 42);
  const auto tiles = map_to_sram_pes(w);
  const auto got = run_tiles(tiles, pc.c, act);
  const auto ref = w.reference_matvec(act);
  for (i64 col = 0; col < pc.c; ++col) {
    EXPECT_EQ(got[static_cast<size_t>(col)], ref[static_cast<size_t>(col)])
        << "col " << col << " n=" << pc.n << " m=" << pc.m;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SramPeSweep,
    ::testing::Values(PeCase{1, 4, 64, 8},     // single tile, segmented
                      PeCase{1, 4, 512, 8},    // exactly one window
                      PeCase{1, 8, 128, 16},   // short columns, 1:8
                      PeCase{1, 16, 64, 4},    // max index range
                      PeCase{2, 4, 128, 8},    // N=2
                      PeCase{2, 8, 256, 12},   // N=2 multi-tile
                      PeCase{4, 8, 64, 20},    // dense-ish pattern
                      PeCase{1, 4, 1024, 8},   // vertical spill (256 > 128)
                      PeCase{1, 8, 2048, 4},   // deep spill
                      PeCase{3, 8, 64, 8},     // non-power-of-two N
                      PeCase{4, 4, 128, 8}));  // dense M:M fallback packing

TEST(SramPe, ExtremeActivationValues) {
  const NmConfig cfg{1, 4};
  const QuantizedNmMatrix w = random_matrix(64, 8, cfg, 7);
  std::vector<i8> act(64);
  for (size_t i = 0; i < act.size(); ++i) {
    act[i] = (i % 3 == 0) ? i8{-128} : (i % 3 == 1) ? i8{127} : i8{0};
  }
  const auto tiles = map_to_sram_pes(w);
  const auto got = run_tiles(tiles, 8, act);
  const auto ref = w.reference_matvec(act);
  for (i64 col = 0; col < 8; ++col)
    EXPECT_EQ(got[static_cast<size_t>(col)], ref[static_cast<size_t>(col)]);
}

TEST(SramPe, ZeroActivationsGiveZero) {
  const QuantizedNmMatrix w = random_matrix(64, 8, kSparse1of4, 8);
  const std::vector<i8> act(64, 0);
  const auto got = run_tiles(map_to_sram_pes(w), 8, act);
  for (i64 v : got) EXPECT_EQ(v, 0);
}

TEST(SramPe, CycleCountMatchesClosedForm) {
  // One matvec = M index phases x 8 input bits array cycles (+ tree
  // drain) per tile, plus the load sweep.
  const NmConfig cfg{1, 4};
  const QuantizedNmMatrix w = random_matrix(512, 8, cfg, 9);
  const auto tiles = map_to_sram_pes(w);
  ASSERT_EQ(tiles.size(), 1u);
  SramSparsePe pe;
  pe.load(tiles[0]);
  const i64 after_load = pe.events().cycles;
  EXPECT_EQ(after_load, 128);  // row-parallel write sweep
  const auto act = random_activations(512, 10);
  pe.matvec(act);
  EXPECT_EQ(pe.events().cycles - after_load, 4 * 8 + AdderTree(128).depth());
  EXPECT_EQ(pe.events().sram_array_cycles, 4 * 8);
  EXPECT_EQ(pe.events().sram_index_compares, 4 * 8);  // 8 groups x 4 phases
}

TEST(SramPe, SegmentationPacksShortColumns) {
  // 1:8 over K=128 gives 16-slot columns: 8 segments per group, so all 16
  // columns fit in a single tile.
  const NmConfig cfg{1, 8};
  const QuantizedNmMatrix w = random_matrix(128, 16, cfg, 11);
  const auto tiles = map_to_sram_pes(w);
  ASSERT_EQ(tiles.size(), 1u);
  EXPECT_EQ(tiles[0].segment_rows, 16);
  EXPECT_EQ(tiles[0].segments_per_group(), 8);
}

TEST(SramPe, VerticalSpillUsesRowAccumulator) {
  // K=1024 at 1:4 -> packed 256 > 128: every column spans two segments
  // and the row-wise accumulator must merge them.
  const NmConfig cfg{1, 4};
  const QuantizedNmMatrix w = random_matrix(1024, 8, cfg, 12);
  const auto tiles = map_to_sram_pes(w);
  const auto stats = sram_mapping_stats(tiles);
  EXPECT_EQ(stats.spilled_columns, 8);

  PeEventCounts events;
  const auto act = random_activations(1024, 13);
  const auto got = run_tiles(tiles, 8, act, &events);
  const auto ref = w.reference_matvec(act);
  for (i64 col = 0; col < 8; ++col)
    EXPECT_EQ(got[static_cast<size_t>(col)], ref[static_cast<size_t>(col)]);
  EXPECT_GT(events.sram_row_acc_ops, 0);
}

TEST(SramPe, WriteEventsCountPairBits) {
  const NmConfig cfg{1, 4};  // 2-bit index -> 10 bits per pair
  const QuantizedNmMatrix w = random_matrix(512, 8, cfg, 14);
  const auto tiles = map_to_sram_pes(w);
  ASSERT_EQ(tiles.size(), 1u);
  SramSparsePe pe;
  pe.load(tiles[0]);
  i64 valid = 0;
  for (u8 v : tiles[0].valid) valid += v;
  EXPECT_EQ(pe.events().sram_weight_bits_written, valid * 10);
}

TEST(SramPe, RequiresLoadBeforeMatvec) {
  SramSparsePe pe;
  const std::vector<i8> act(16, 0);
  EXPECT_THROW(pe.matvec(act), ContractError);
}

TEST(SramPe, ActivationLengthChecked) {
  const QuantizedNmMatrix w = random_matrix(64, 8, kSparse1of4, 17);
  SramSparsePe pe;
  pe.load(map_to_sram_pes(w)[0]);
  const std::vector<i8> too_short(32, 0);
  EXPECT_THROW(pe.matvec(too_short), ContractError);
}

}  // namespace
}  // namespace msh
