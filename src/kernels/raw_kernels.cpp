// The raw data path's kernel bodies, compiled once per ISA: see
// kernels/raw_kernels.h for the build and dispatch rules. Everything
// here but the table has internal linkage, so no copy defines a name
// another copy also defines.
#include "kernels/raw_kernels.h"

#include <algorithm>
#include <cstring>

#include "kernels/simd.h"

#define MSH_NAME_OF(isa) #isa
#define MSH_ISA_NAME(isa) MSH_NAME_OF(isa)

namespace msh::isa::MSH_SIMD_ISA {
namespace {

void quantize_activations(const f32* x, i64 batch, i64 k, i64 padded_k,
                          const QuantParams& params, i8* codes) {
  MSH_REQUIRE(padded_k >= k);
  for (i64 b = 0; b < batch; ++b) {
    i8* row = codes + b * padded_k;
    simd::quantize(x + b * k, k, params, row);
    if (padded_k > k) {
      std::memset(row + k, 0, static_cast<size_t>(padded_k - k));
    }
  }
}

void quantize_conv_planes(const f32* x, const ConvPlanes& g,
                          const QuantParams& params, i16* planes) {
  const i64 s = g.stride, phases = g.phases;
  const i64 image_len = g.plane_h * g.plane_w;
  const i64 channel_len = phases * phases * g.plane_len;
  const i64 area = g.height * g.width;
  // An (image, channel) that fits the buffer is quantized in one call,
  // then laid out row by row; a larger one a row piece at a time. Strided
  // rows split into pieces of a multiple of s columns, so every piece
  // splits into phases alike: phase 0 starts at column `first` of the
  // piece (padded column first + padding is a multiple of s), in plane
  // column q0 for the row's first piece.
  constexpr i64 kPiece = 1024;
  const bool whole = area <= kPiece;
  const i64 piece = kPiece / s * s;
  const i64 first = (s - g.padding % s) % s;
  const i64 q0 = (g.padding + first) / s;
  std::memset(planes, 0, static_cast<size_t>(g.plane_len) * sizeof(i16));
  i16 codes[kPiece];
  for (i64 c = 0; c < g.channels; ++c) {
    i16* cp = planes + (1 + c * phases * phases) * g.plane_len;
    std::memset(cp, 0, static_cast<size_t>(channel_len) * sizeof(i16));
    for (i64 n = 0; n < g.batch; ++n) {
      const f32* src = x + (n * g.channels + c) * area;
      i16* image = cp + n * image_len;
      if (whole) simd::quantize(src, area, params, codes);
      if (s == 1) {  // one phase: each row lands whole, after the pad
        for (i64 iy = 0; iy < g.height; ++iy) {
          i16* dst = image + (iy + g.padding) * g.plane_w + g.padding;
          if (whole) {
            std::memcpy(dst, codes + iy * g.width,
                        static_cast<size_t>(g.width) * sizeof(i16));
          } else {
            simd::quantize(src + iy * g.width, g.width, params, dst);
          }
        }
        continue;
      }
      // Padded row iy + padding is row qy of phase row ry.
      i64 ry = g.padding % s, qy = g.padding / s;
      for (i64 iy = 0; iy < g.height; ++iy) {
        if (ry < phases) {  // else no tap reads the row
          i16* line = image + ry * phases * g.plane_len + qy * g.plane_w;
          for (i64 x0 = 0; x0 < g.width; x0 += piece, line += piece / s) {
            const i64 len = std::min(piece, g.width - x0);
            const i16* row = codes + iy * g.width + x0;
            if (!whole) {
              simd::quantize(src + iy * g.width + x0, len, params, codes);
              row = codes;
            }
            for (i64 rx = 0; rx < phases; ++rx) {
              // Phase rx: columns first + rx + k * s, wrapped into the
              // piece (one plane column earlier when wrapped).
              const i64 at = first + rx < s ? first + rx : first + rx - s;
              i16* dst = line + rx * g.plane_len + q0 - (at < first);
              for (i64 i = at; i < len; i += s) *dst++ = row[i];
            }
          }
        }
        if (++ry == s) {
          ry = 0;
          ++qy;
        }
      }
    }
  }
}

void direct_conv(const FlatCsc& w, const i16* planes, const ConvPlanes& g,
                 i32* out, KernelArena& arena) {
  MSH_REQUIRE(w.dense_rows >= g.k());
  std::span<i64> row_off = arena.alloc<i64>(w.dense_rows);
  g.row_offsets(row_off);
  const i64 tiles = g.positions / simd::kMacTile;
  // Tile-major: one tile's slices of every tap stay in L1 while the
  // output channels walk them.
  for (i64 t = 0; t < tiles; ++t) {
    const i64 q0 = t * simd::kMacTile;
    for (i64 c = 0; c < w.cols; ++c) {
      const i64 lo = w.col_ptr[static_cast<size_t>(c)];
      const i64 pairs = (w.col_ptr[static_cast<size_t>(c) + 1] - lo) / 2;
      simd::pair_mac(out + c * g.positions + q0, simd::kMacTile, planes + q0,
                     w.entry_row.data() + lo, row_off.data(),
                     w.pair_weight.data() + lo / 2, pairs);
    }
  }
}

void raw_csc_matmul(const FlatCsc& w, std::span<const i8> acts, i64 batch,
                    std::span<i32> out, KernelArena& arena) {
  MSH_REQUIRE(static_cast<i64>(acts.size()) == batch * w.dense_rows);
  MSH_REQUIRE(static_cast<i64>(out.size()) == batch * w.cols);

  // Batch rows are processed in blocks: activations for one block are
  // transposed and widened to i16 once (xt[row][j]: entry e's lanes start
  // at row_off[entry_row[e]] = entry_row[e] * nb), then every column
  // walks its entry pairs against the whole block, a tile at a time.
  constexpr i64 kBlock = 64;
  const i64 nb_max = std::min(batch, kBlock);
  std::span<i16> xt = arena.alloc<i16>(w.dense_rows * nb_max);
  std::span<i64> row_off = arena.alloc<i64>(w.dense_rows);

  for (i64 b0 = 0; b0 < batch; b0 += kBlock) {
    const i64 nb = std::min(kBlock, batch - b0);
    simd::widen_transpose(acts.data() + b0 * w.dense_rows, nb, w.dense_rows,
                          xt.data());
    for (i64 r = 0; r < w.dense_rows; ++r) {
      row_off[static_cast<size_t>(r)] = r * nb;
    }
    i32 acc[kBlock];
    for (i64 c = 0; c < w.cols; ++c) {
      const i64 lo = w.col_ptr[static_cast<size_t>(c)];
      const i64 pairs = (w.col_ptr[static_cast<size_t>(c) + 1] - lo) / 2;
      for (i64 j0 = 0; j0 < nb; j0 += simd::kMacTile) {
        simd::pair_mac(acc + j0, std::min(simd::kMacTile, nb - j0),
                       xt.data() + j0, w.entry_row.data() + lo,
                       row_off.data(), w.pair_weight.data() + lo / 2, pairs);
      }
      for (i64 j = 0; j < nb; ++j) {
        out[static_cast<size_t>((b0 + j) * w.cols + c)] = acc[j];
      }
    }
  }
}

void pair_mac(i32* out, i64 n, const i16* x, const i32* row, const i64* off,
              const i32* w, i64 pairs) {
  simd::pair_mac(out, n, x, row, off, w, pairs);
}

template <typename Code>
void quantize(const f32* x, i64 n, const QuantParams& params, Code* codes) {
  simd::quantize(x, n, params, codes);
}

void widen_transpose(const i8* x, i64 rows, i64 cols, i16* xt) {
  simd::widen_transpose(x, rows, cols, xt);
}

}  // namespace

const RawKernels kRawKernels = {
    .isa = MSH_ISA_NAME(MSH_SIMD_ISA),
    .quantize_activations = quantize_activations,
    .quantize_conv_planes = quantize_conv_planes,
    .direct_conv = direct_conv,
    .raw_csc_matmul = raw_csc_matmul,
    .pair_mac = pair_mac,
    .quantize_i8 = quantize<i8>,
    .quantize_i16 = quantize<i16>,
    .widen_transpose = widen_transpose,
};

}  // namespace msh::isa::MSH_SIMD_ISA
