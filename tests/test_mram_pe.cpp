// Bit-exactness and pipeline/write accounting of the near-memory MRAM
// sparse PE.
#include <gtest/gtest.h>

#include "mapping/csc_mapper.h"
#include "pim/mram_pe.h"

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

std::vector<i64> run_tiles(const std::vector<MramPeTile>& tiles, i64 cols,
                           std::span<const i8> act,
                           PeEventCounts* events = nullptr) {
  std::vector<i64> out(static_cast<size_t>(cols), 0);
  for (const auto& tile : tiles) {
    MramSparsePe pe;
    pe.program(tile);
    const MramPeOutput y = pe.matvec(act);
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

class MramPeSweep : public ::testing::TestWithParam<PeCase> {};

TEST_P(MramPeSweep, BitExactAgainstReference) {
  const PeCase pc = GetParam();
  const NmConfig cfg{pc.n, pc.m};
  const QuantizedNmMatrix w =
      random_matrix(pc.k, pc.c, cfg, static_cast<u64>(pc.k * 17 + pc.c));
  const auto act = random_activations(pc.k, 5);
  const auto got = run_tiles(map_to_mram_pes(w), pc.c, act);
  const auto ref = w.reference_matvec(act);
  for (i64 col = 0; col < pc.c; ++col) {
    EXPECT_EQ(got[static_cast<size_t>(col)], ref[static_cast<size_t>(col)])
        << "col " << col;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MramPeSweep,
    ::testing::Values(PeCase{1, 4, 64, 4},      // one row per column
                      PeCase{1, 4, 512, 8},     // multi-row columns
                      PeCase{1, 8, 1024, 16},   // deep reduction
                      PeCase{2, 8, 256, 8},     // N=2
                      PeCase{1, 16, 2048, 4},   // max index range
                      PeCase{4, 16, 512, 6},    // dense-ish
                      PeCase{4, 4, 256, 8},     // dense M:M fallback packing
                      PeCase{1, 4, 86016, 3})); // spans >1 sub-array tile

TEST(MramPe, PipelineCycleFormula) {
  // R used rows -> R + 2 cycles (3-stage pipeline fill).
  const QuantizedNmMatrix w = random_matrix(672, 4, kSparse1of4, 1);
  // packed rows = 168 -> 4 physical rows per column x 4 cols = 16 rows.
  const auto tiles = map_to_mram_pes(w);
  ASSERT_EQ(tiles.size(), 1u);
  MramSparsePe pe;
  pe.program(tiles[0]);
  const i64 after_program = pe.events().cycles;
  const auto act = random_activations(672, 2);
  pe.matvec(act);
  EXPECT_EQ(pe.last_pipeline().rows, 16);
  EXPECT_EQ(pe.last_pipeline().total_cycles(), 18);
  EXPECT_EQ(pe.events().cycles - after_program, 18);
  EXPECT_EQ(pe.events().mram_row_reads, 16);
}

TEST(MramPe, PipelineThroughputApproachesOneRowPerCycle) {
  MramPipelineStats stats{.rows = 1000};
  EXPECT_NEAR(stats.throughput(42), 42.0 * 1000 / 1002, 1e-9);
}

TEST(MramPe, FirstProgramTogglesOnlyNonBlankBits) {
  const QuantizedNmMatrix w = random_matrix(512, 4, kSparse1of4, 3);
  const auto tiles = map_to_mram_pes(w);
  MramSparsePe pe;
  pe.program(tiles[0]);
  // Re-programming identical content toggles nothing (read-before-write).
  const i64 bits_first = pe.events().mram_set_reset_bits;
  EXPECT_GT(bits_first, 0);
  pe.program(tiles[0]);
  EXPECT_EQ(pe.events().mram_set_reset_bits, bits_first);
}

TEST(MramPe, ReprogramTogglesOnlyChangedBits) {
  const QuantizedNmMatrix a = random_matrix(512, 4, kSparse1of4, 4);
  const QuantizedNmMatrix b = random_matrix(512, 4, kSparse1of4, 5);
  const auto tiles_a = map_to_mram_pes(a);
  const auto tiles_b = map_to_mram_pes(b);
  MramSparsePe pe;
  pe.program(tiles_a[0]);
  const i64 first = pe.events().mram_set_reset_bits;
  pe.program(tiles_b[0]);
  const i64 delta = pe.events().mram_set_reset_bits - first;
  EXPECT_GT(delta, 0);
  EXPECT_LT(delta, first * 2);  // far from a full rewrite of all bits
}

TEST(MramPe, BufferReadsMatchValidPairs) {
  const QuantizedNmMatrix w = random_matrix(512, 4, kSparse1of4, 6);
  const auto tiles = map_to_mram_pes(w);
  MramSparsePe pe;
  pe.program(tiles[0]);
  const auto act = random_activations(512, 7);
  pe.matvec(act);
  i64 valid = 0;
  for (const auto& row : tiles[0].rows) {
    for (const auto& e : row.entries) valid += e.valid;
  }
  EXPECT_EQ(pe.events().buffer_bits_read, valid * 8);
}

TEST(MramPe, RequiresProgramBeforeMatvec) {
  MramSparsePe pe;
  const std::vector<i8> act(16, 0);
  EXPECT_THROW(pe.matvec(act), ContractError);
}

TEST(MramPe, ZeroActivations) {
  const QuantizedNmMatrix w = random_matrix(256, 4, kSparse1of8, 8);
  const std::vector<i8> act(256, 0);
  const auto got = run_tiles(map_to_mram_pes(w), 4, act);
  for (i64 v : got) EXPECT_EQ(v, 0);
}

}  // namespace
}  // namespace msh
