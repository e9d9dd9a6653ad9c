// Raw backend weights (DESIGN §5i): the live PE cells of one deployment
// in a flat compressed-column form shaped for simd::pair_mac, plus the
// linear-layer matmul over it (convs: kernels/direct_conv.h).
//
// Weight-stationary: HybridCore packs each deployment once into an owned
// PackedCsc and keeps it resident across dispatches, the host analogue
// of the compressed weights staying in the SRAM/MRAM arrays while
// activations stream past. Every cell write goes through the core —
// deploy, redeploy_sram, and nvm_codes(), the only mutable view of the
// cells (fault injection, ECC scrub repair, power-fail scrambles, warm
// restart, wear-tracked programming) — and marks that deployment's pack
// stale; the next raw dispatch on it repacks from the live cells. So the
// raw backend still computes on exactly the cells the modeled walk
// reads, and a clean deployment is never repacked.
//
// Bit-exactness argument: the modeled datapaths compute, per logical
// output column, the exact integer sum of weight x activation (64-bit
// intermediate), truncated to i32 once at the end. Two's-complement
// truncation of an exact sum equals wrap-around 32-bit accumulation in
// any summation order, so the packed kernels' per-column wrap-32 dot
// products are bit-identical regardless of SIMD width, entry order or
// pairing. The zero-weight dummies contribute exactly 0.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "kernels/arena.h"
#include "pim/pe_tile.h"  // header-only tile formats

namespace msh {

/// One deployment's weights in flat compressed-column form. Each
/// column's entries are padded to an even count with a zero-weight dummy
/// on dense row 0, and each consecutive entry pair's weights are
/// pre-packed into one simd::pack_pair word. Spans view storage owned
/// elsewhere (a PackedCsc, or an arena).
struct FlatCsc {
  i64 cols = 0;
  i64 dense_rows = 0;
  std::span<const i64> col_ptr;      ///< [cols + 1] even entry ranges
  std::span<const i32> entry_row;    ///< dense activation row per entry
  std::span<const i32> pair_weight;  ///< [entries / 2] packed pair words
};

/// Owned FlatCsc storage: a deployment's resident packed weights.
struct PackedCsc {
  i64 cols = 0;
  i64 dense_rows = 0;
  std::vector<i64> col_ptr;
  std::vector<i32> entry_row;
  std::vector<i32> pair_weight;

  FlatCsc view() const {
    return {cols, dense_rows, col_ptr, entry_row, pair_weight};
  }
};

/// Packs SRAM tiles. Mirrors the modeled addressing exactly:
/// dense_row = (segment_offset + local_row / N) * M + stored_index, and
/// a slot whose (possibly fault-flipped) index is >= M never matches an
/// index phase, so it is dropped here too.
PackedCsc pack_csc_sram(std::span<const SramPeTile* const> tiles, i64 cols,
                        i64 dense_rows);

/// Packs MRAM tiles: dense_row = ((packed_base + e) / N) * M + index per
/// valid entry of every used physical row.
PackedCsc pack_csc_mram(std::span<const MramPeTile* const> tiles, i64 cols,
                        i64 dense_rows);

/// pack_csc_sram / pack_csc_mram copied into `arena`: valid until its
/// next reset().
FlatCsc build_flat_csc_sram(std::span<const SramPeTile* const> tiles,
                            i64 cols, i64 dense_rows, KernelArena& arena);
FlatCsc build_flat_csc_mram(std::span<const MramPeTile* const> tiles,
                            i64 cols, i64 dense_rows, KernelArena& arena);

/// out[b * cols + c] = wrap-32 sum over column c's entries of
/// weight * acts[b * dense_rows + entry_row], for every batch row b.
/// Batch rows are blocked and widened to i16 in the arena. The trailing
/// parameter only keeps older `nullptr` call sites compiling; it carries
/// nothing.
void raw_csc_matmul(const FlatCsc& w, std::span<const i8> acts, i64 batch,
                    std::span<i32> out, KernelArena& arena,
                    std::nullptr_t = nullptr);

}  // namespace msh
