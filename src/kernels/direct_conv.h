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
//
// A 1x1, padding-0 conv that reads the same input as a k x k sibling
// with its stride and output grid can read the sibling's planes instead
// of its own (ConvPlanes::sibling_view): its one tap per channel is the
// sibling's plane and shift holding input (s * oy, s * ox), and its
// lanes follow the sibling's plane grid.
#pragma once

#include <optional>
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
  /// Planes from one channel's first plane to the next's: phases² for a
  /// conv's own planes, the sibling's phases² for a sibling_view.
  i64 channel_planes = 1;
  /// Added to every row offset but the K tail's: 0 for a conv's own
  /// planes; for a sibling_view, where its tap sits in a channel's planes.
  i64 tap_offset = 0;

  static ConvPlanes make(i64 batch, i64 channels, i64 height, i64 width,
                         i64 kernel, i64 stride, i64 padding);

  /// The layout `own` (a 1x1, padding-0 conv) reads `host`'s planes
  /// through, when both convs read the same input with the same stride
  /// and output grid: host's plane grid and buffer, one tap per channel
  /// at the plane and shift where host holds input (s * oy, s * ox).
  /// nullopt when the geometries do not fit.
  static std::optional<ConvPlanes> sibling_view(const ConvPlanes& host,
                                                const ConvPlanes& own);

  bool operator==(const ConvPlanes&) const = default;

  /// Logical reduction length C * k * k.
  i64 k() const { return channels * kernel * kernel; }
  /// Elements of the whole plane buffer.
  i64 size() const { return (1 + channels * channel_planes) * plane_len; }
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

/// The ReLU a conv epilogue ends with. kPositive is nn::Relu's
/// v > 0 ? v : 0 (-0.0 and NaN become +0.0); kMax is std::max(v, 0.0f)
/// (keeps -0.0 and NaN).
enum class EpilogueRelu { kNone, kPositive, kMax };

/// One channel's eval-mode BatchNorm constants, inv_std = 1 / sqrt(var +
/// eps), as BatchNorm2d::forward computes them.
struct BnConstants {
  f32 g, beta, mean, inv_std;
};

/// The per-element steps of a conv epilogue, each optional but the
/// bias-add: v = scale * acc + bias[c] (0.0f when bias is null), then BN
/// g * (v - mean) * inv_std + beta, then v + residual, then the ReLU.
struct EpilogueSteps {
  const f32* bias = nullptr;        ///< [channels], or null
  const BnConstants* bn = nullptr;  ///< [channels], or null
  const f32* residual = nullptr;    ///< shaped like the f32 output, or null
  EpilogueRelu relu = EpilogueRelu::kNone;
};

/// Where a conv epilogue writes its finished values: as f32 NCHW, as
/// the code planes of the next conv's input, or both in one pass (an
/// output some consumer adds in f32 and a conv reads). At least one is
/// set.
struct EpilogueOutputs {
  f32* y = nullptr;  ///< [batch, channels, out_h, out_w], or null
  /// The next conv's own input planes (next->size() elements), or null.
  /// The next conv reads this conv's output: stride 1, next->batch and
  /// next->channels equal to this conv's, its height and width this
  /// conv's out_h and out_w.
  i16* planes = nullptr;
  const ConvPlanes* next = nullptr;
  QuantParams next_params;  ///< the next conv's input quantization
};

/// Finishes a conv's accumulators acc[c * layout.positions +
/// layout.position(n, oy, ox)] through `steps`, one IEEE operation per
/// step in the order EpilogueSteps gives, and writes each finished value
/// to out.y and/or, as next_params.quantize of it, into out.planes at
/// its input position of the next conv; every other plane element is 0.
/// Bit-identical to dequantizing, applying the steps and quantizing one
/// element at a time, on every ISA copy. When only planes are written
/// and the two layouts share plane_h and plane_w, lane q lands at q + p
/// * (plane_w + 1), p the next conv's padding, so each channel goes out
/// as one contiguous run; otherwise each output row is one run.
void conv_epilogue(const i32* acc, const ConvPlanes& layout, i64 channels,
                   f32 scale, const EpilogueSteps& steps,
                   const EpilogueOutputs& out);

/// The kernel x kernel, stride `stride` average pool of x [next.batch,
/// next.channels, height, width], quantized straight into the input
/// planes of `next`, a stride-1 conv over the pooled size (next.height x
/// next.width): each code is params.quantize of the pooled value, the
/// sum from 0.0f of the window's elements in row-major order times 1 /
/// (kernel * kernel) (the FP32 operations of the executor's
/// avg_pool_eval), and every other plane element is 0. No f32 pooled
/// tensor is made.
void avg_pool_planes(const f32* x, i64 height, i64 width, i64 kernel,
                     i64 stride, const ConvPlanes& next,
                     const QuantParams& params, i16* planes);

}  // namespace msh
