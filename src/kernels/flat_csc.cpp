#include "kernels/flat_csc.h"

#include <algorithm>

#include "kernels/simd.h"

namespace msh {

namespace {

/// Packs the entries of any per-entry visitor. `visit` must call its
/// callback once per stored entry with (output_id, dense_row, weight),
/// in a deterministic order.
template <typename Visit>
PackedCsc pack(i64 cols, i64 dense_rows, Visit&& visit) {
  MSH_REQUIRE(cols >= 0 && dense_rows >= 0);
  PackedCsc csc;
  csc.cols = cols;
  csc.dense_rows = dense_rows;
  csc.col_ptr.assign(static_cast<size_t>(cols + 1), 0);

  // Pass 1: count entries per column, rounded up to a whole pair.
  visit([&](i32 col, i64 /*dense_row*/, i8 /*weight*/) {
    MSH_ENSURE(col >= 0 && static_cast<i64>(col) < cols);
    csc.col_ptr[static_cast<size_t>(col) + 1] += 1;
  });
  for (size_t c = 0; c < static_cast<size_t>(cols); ++c) {
    csc.col_ptr[c + 1] += csc.col_ptr[c] + (csc.col_ptr[c + 1] & 1);
  }

  // Pass 2: fill through a cursor per column. Dummies keep row 0 and
  // weight 0.
  const size_t entries = static_cast<size_t>(csc.col_ptr.back());
  csc.entry_row.assign(entries, 0);
  std::vector<i8> weight(entries, 0);
  std::vector<i64> cursor(csc.col_ptr.begin(), csc.col_ptr.end() - 1);
  visit([&](i32 col, i64 dense_row, i8 w) {
    MSH_ENSURE(dense_row >= 0 && dense_row < dense_rows);
    const size_t at = static_cast<size_t>(cursor[static_cast<size_t>(col)]++);
    csc.entry_row[at] = static_cast<i32>(dense_row);
    weight[at] = w;
  });

  csc.pair_weight.resize(entries / 2);
  for (size_t p = 0; p < csc.pair_weight.size(); ++p) {
    csc.pair_weight[p] = simd::pack_pair(weight[2 * p], weight[2 * p + 1]);
  }
  return csc;
}

/// Copies a packed form into arena spans.
FlatCsc to_arena(const PackedCsc& packed, KernelArena& arena) {
  auto copy = [&]<typename T>(const std::vector<T>& v) {
    std::span<T> dst = arena.alloc<T>(static_cast<i64>(v.size()));
    std::copy(v.begin(), v.end(), dst.begin());
    return std::span<const T>(dst);
  };
  return {packed.cols, packed.dense_rows, copy(packed.col_ptr),
          copy(packed.entry_row), copy(packed.pair_weight)};
}

}  // namespace

PackedCsc pack_csc_sram(std::span<const SramPeTile* const> tiles, i64 cols,
                        i64 dense_rows) {
  auto visit = [&](auto&& emit) {
    for (const SramPeTile* tile : tiles) {
      const i64 segs = tile->segments_per_group();
      const i64 seg_rows = tile->segment_rows;
      const i32 m = tile->cfg.m;
      const i32 n = tile->cfg.n;
      for (i64 g = 0; g < tile->groups; ++g) {
        for (i64 s = 0; s < segs; ++s) {
          const i64 seg_idx = g * segs + s;
          const i32 id = tile->output_id[static_cast<size_t>(seg_idx)];
          if (id < 0) continue;
          const i64 offset =
              tile->segment_offset[static_cast<size_t>(seg_idx)];
          for (i64 r = 0; r < seg_rows; ++r) {
            const size_t slot =
                static_cast<size_t>(g * tile->rows + s * seg_rows + r);
            if (!tile->valid[slot]) continue;
            const u8 index = tile->indices[slot];
            // An index outside [0, M) (a fault-flipped cell) never
            // matches an index phase in the modeled walk: drop it.
            if (static_cast<i32>(index) >= m) continue;
            const i64 dense_row =
                (offset + r / n) * m + static_cast<i64>(index);
            emit(id, dense_row, tile->weights[slot]);
          }
        }
      }
    }
  };
  return pack(cols, dense_rows, visit);
}

PackedCsc pack_csc_mram(std::span<const MramPeTile* const> tiles, i64 cols,
                        i64 dense_rows) {
  auto visit = [&](auto&& emit) {
    for (const MramPeTile* tile : tiles) {
      const i32 m = tile->cfg.m;
      const i32 n = tile->cfg.n;
      for (const auto& row : tile->rows) {
        if (row.output_id < 0) continue;
        for (size_t e = 0; e < row.entries.size(); ++e) {
          const auto& entry = row.entries[e];
          if (!entry.valid) continue;
          const i64 packed_row = row.packed_base + static_cast<i64>(e);
          const i64 dense_row =
              (packed_row / n) * m + static_cast<i64>(entry.index);
          emit(row.output_id, dense_row, entry.weight);
        }
      }
    }
  };
  return pack(cols, dense_rows, visit);
}

FlatCsc build_flat_csc_sram(std::span<const SramPeTile* const> tiles,
                            i64 cols, i64 dense_rows, KernelArena& arena) {
  return to_arena(pack_csc_sram(tiles, cols, dense_rows), arena);
}

FlatCsc build_flat_csc_mram(std::span<const MramPeTile* const> tiles,
                            i64 cols, i64 dense_rows, KernelArena& arena) {
  return to_arena(pack_csc_mram(tiles, cols, dense_rows), arena);
}

}  // namespace msh
