// Raw backend conv (DESIGN §5i): a sparse implicit GEMM straight from
// zero-padded INT code planes — no im2col matrix, no transpose.
//
// The input is quantized once into i16 code planes laid out
// [1 + C * P²][plane_len], P = min(stride, kernel): plane 0 is all zero,
// and plane 1 + c * P² + ry * P + rx holds phase (ry, rx) of channel c's
// zero-padded images, stacked vertically:
//   plane[n * Hq * Wq + qy * Wq + qx] = padded[n][c][s*qy + ry][s*qx + rx]
// where padded[n][c] has s * Hq rows of s * Wq columns, the image at
// offset (p, p) and zeros elsewhere. s * Wq >= W + p is enough: a row's
// right pad continues into the next row's left pad (and an image's
// bottom pad into the next image's top pad), so the padding between two
// images is shared. Output position (oy, ox) of image n sits at
// q = n * Hq * Wq + oy * Wq + ox, and tap (ky, kx) of channel c reads
// phase (ky % s, kx % s) at q + (ky / s) * Wq + kx / s — one fixed offset
// per dense row (c, ky, kx), so every compressed entry streams a
// contiguous shifted slice of one plane. With stride 1 there is one
// phase and the planes are the padded images themselves. Lanes whose q
// lands in the padding ring (ox >= Wo, oy >= Ho) are computed and
// discarded. Dense rows in the K tail (>= C * k * k, including
// fault-flipped ones) read the zero plane: code 0. The modeled backend's
// PE walks read the same planes through the same row offsets
// (kernels/modeled.h, LaneView).
#pragma once

#include <span>

#include "kernels/arena.h"
#include "kernels/flat_csc.h"
#include "quant/quant.h"

namespace msh {

/// Geometry of one conv dispatch and the layout of its code planes.
struct ConvPlanes {
  i64 batch = 0, channels = 0, height = 0, width = 0;
  i64 kernel = 1, stride = 1, padding = 0;
  i64 phases = 1;             ///< phase splits per axis, min(stride, kernel)
  i64 plane_h = 0, plane_w = 0;  ///< Hq, Wq
  i64 out_h = 0, out_w = 0;
  /// Output lanes computed per output channel: every valid position is
  /// below it, and it is a whole number of simd::kMacTile tiles.
  i64 positions = 0;
  i64 plane_len = 0;  ///< elements per plane, reads included

  static ConvPlanes make(i64 batch, i64 channels, i64 height, i64 width,
                         i64 kernel, i64 stride, i64 padding);

  /// Logical reduction length C * k * k.
  i64 k() const { return channels * kernel * kernel; }
  /// Elements of the whole plane buffer.
  i64 size() const { return (1 + channels * phases * phases) * plane_len; }
  /// Lane of output (image, oy, ox) in every output channel's row.
  i64 position(i64 image, i64 oy, i64 ox) const {
    return (image * plane_h + oy) * plane_w + ox;
  }
  /// Plane offset of dense row r's slice, for every r in [0, off.size()).
  void row_offsets(std::span<i64> off) const;
};

/// Quantizes x [batch, C, H, W] into `planes` (layout.size() elements):
/// every code is params.quantize of its input, through simd::quantize,
/// and everything else is 0.
void quantize_conv_planes(const f32* x, const ConvPlanes& layout,
                          const QuantParams& params, i16* planes);

/// out[c * layout.positions + q] = wrap-32 sum over column c's entries of
/// weight * planes[row_offset(entry_row) + q], for q < layout.positions.
/// Reads at most layout.size() plane elements.
void direct_conv(const FlatCsc& w, const i16* planes, const ConvPlanes& layout,
                 i32* out, KernelArena& arena);

}  // namespace msh
