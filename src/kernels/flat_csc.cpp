#include "kernels/flat_csc.h"

#include <algorithm>

#include "kernels/simd.h"

namespace msh {

namespace {

/// Builds the CSC arrays from any per-entry visitor. `visit` must call
/// its callback once per stored entry with (output_id, dense_row,
/// weight), in a deterministic order.
template <typename Visit>
FlatCsc build(i64 cols, i64 dense_rows, KernelArena& arena, Visit&& visit) {
  MSH_REQUIRE(cols >= 0 && dense_rows >= 0);
  FlatCsc csc;
  csc.cols = cols;
  csc.dense_rows = dense_rows;
  csc.col_ptr = arena.alloc<i64>(cols + 1);
  std::fill(csc.col_ptr.begin(), csc.col_ptr.end(), 0);

  // Pass 1: count entries per column.
  visit([&](i32 col, i64 /*dense_row*/, i8 /*weight*/) {
    MSH_ENSURE(col >= 0 && static_cast<i64>(col) < cols);
    csc.col_ptr[static_cast<size_t>(col) + 1] += 1;
  });
  for (i64 c = 0; c < cols; ++c) {
    csc.col_ptr[static_cast<size_t>(c + 1)] +=
        csc.col_ptr[static_cast<size_t>(c)];
  }

  // Pass 2: fill, using a scratch cursor per column.
  const i64 entries = csc.col_ptr[static_cast<size_t>(cols)];
  csc.entry_row = arena.alloc<i32>(entries);
  csc.entry_weight = arena.alloc<i8>(entries);
  std::span<i64> cursor = arena.alloc<i64>(cols);
  std::copy(csc.col_ptr.begin(), csc.col_ptr.end() - 1, cursor.begin());
  visit([&](i32 col, i64 dense_row, i8 weight) {
    MSH_ENSURE(dense_row >= 0 && dense_row < dense_rows);
    const i64 at = cursor[static_cast<size_t>(col)]++;
    csc.entry_row[static_cast<size_t>(at)] = static_cast<i32>(dense_row);
    csc.entry_weight[static_cast<size_t>(at)] = weight;
  });
  return csc;
}

}  // namespace

FlatCsc build_flat_csc_sram(std::span<const SramPeTile* const> tiles,
                            i64 cols, i64 dense_rows, KernelArena& arena) {
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
  return build(cols, dense_rows, arena, visit);
}

FlatCsc build_flat_csc_mram(std::span<const MramPeTile* const> tiles,
                            i64 cols, i64 dense_rows, KernelArena& arena) {
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
  return build(cols, dense_rows, arena, visit);
}

void raw_csc_matmul(const FlatCsc& w, std::span<const i8> acts, i64 batch,
                    std::span<i32> out, KernelArena& arena,
                    ThreadPool* pool) {
  MSH_REQUIRE(static_cast<i64>(acts.size()) == batch * w.dense_rows);
  MSH_REQUIRE(static_cast<i64>(out.size()) == batch * w.cols);

  // Batch rows are processed in blocks: activations for one block are
  // transposed and widened to i16 once (xT[row][j], the layout the
  // multiply-accumulate streams through), then every column walks its
  // entries against the whole block.
  constexpr i64 kBlock = 64;
  const i64 nb_max = std::min(batch, kBlock);
  std::span<i16> xt = arena.alloc<i16>(w.dense_rows * nb_max);

  for (i64 b0 = 0; b0 < batch; b0 += kBlock) {
    const i64 nb = std::min(kBlock, batch - b0);
    simd::widen_transpose(acts.data() + b0 * w.dense_rows, nb, w.dense_rows,
                          xt.data());
    parallel_for(pool, w.cols, [&](i64 begin, i64 end) {
      i32 acc[kBlock];
      for (i64 c = begin; c < end; ++c) {
        std::fill(acc, acc + nb, 0);
        const i64 lo = w.col_ptr[static_cast<size_t>(c)];
        const i64 hi = w.col_ptr[static_cast<size_t>(c) + 1];
        for (i64 e = lo; e < hi; ++e) {
          const i32 weight = w.entry_weight[static_cast<size_t>(e)];
          const i16* x =
              xt.data() + w.entry_row[static_cast<size_t>(e)] * nb;
          simd::multiply_accumulate(acc, weight, x, nb);
        }
        for (i64 j = 0; j < nb; ++j) {
          out[static_cast<size_t>((b0 + j) * w.cols + c)] = acc[j];
        }
      }
    });
  }
}

}  // namespace msh
