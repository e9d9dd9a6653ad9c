#include "kernels/direct_conv.h"

#include <algorithm>

#include "kernels/simd.h"

namespace msh {

ConvPlanes ConvPlanes::make(i64 batch, i64 channels, i64 height, i64 width,
                            i64 kernel, i64 stride, i64 padding) {
  MSH_REQUIRE(batch > 0 && channels > 0 && kernel > 0 && stride > 0 &&
              padding >= 0);
  ConvPlanes g;
  g.batch = batch;
  g.channels = channels;
  g.height = height;
  g.width = width;
  g.kernel = kernel;
  g.stride = stride;
  g.padding = padding;
  g.phases = std::min(stride, kernel);
  const i64 hp = height + 2 * padding, wp = width + 2 * padding;
  MSH_REQUIRE(hp >= kernel && wp >= kernel);
  g.out_h = (hp - kernel) / stride + 1;
  g.out_w = (wp - kernel) / stride + 1;
  // An image's bottom pad is the next image's top pad, and a row's right
  // pad the next row's left pad: s * Hq >= H + p rows and s * Wq >= W + p
  // columns suffice. Hq >= Ho and Wq >= Wo keep positions distinct.
  g.plane_h = std::max((height + padding + stride - 1) / stride, g.out_h);
  g.plane_w = std::max((width + padding + stride - 1) / stride, g.out_w);
  const i64 last = g.position(batch - 1, g.out_h - 1, g.out_w - 1) + 1;
  g.positions = (last + simd::kMacTile - 1) / simd::kMacTile * simd::kMacTile;
  // The largest tap shift, taken by the last tile's last lane.
  const i64 shift = (kernel - 1) / stride * (g.plane_w + 1);
  g.plane_len = std::max(batch * g.plane_h * g.plane_w, g.positions + shift);
  g.channel_planes = g.phases * g.phases;
  return g;
}

std::optional<ConvPlanes> ConvPlanes::sibling_view(const ConvPlanes& host,
                                                   const ConvPlanes& own) {
  const i64 s = own.stride, p = host.padding;
  // Padded input (s * oy + p, s * ox + p) is phase (p % s, p % s), plane
  // row oy + p / s, column ox + p / s.
  const i64 phase = p % s;
  const i64 shift = p / s * (host.plane_w + 1);
  const bool fits =
      own.kernel == 1 && own.padding == 0 && host.stride == s &&
      host.channel_planes == host.phases * host.phases &&
      host.tap_offset == 0 && own.batch == host.batch &&
      own.channels == host.channels && own.height == host.height &&
      own.width == host.width && own.out_h == host.out_h &&
      own.out_w == host.out_w && phase < host.phases &&
      host.positions + shift <= host.plane_len;
  if (!fits) return std::nullopt;
  ConvPlanes view = own;
  view.plane_h = host.plane_h;
  view.plane_w = host.plane_w;
  view.positions = host.positions;
  view.plane_len = host.plane_len;
  view.channel_planes = host.channel_planes;
  view.tap_offset = (phase * host.phases + phase) * host.plane_len + shift;
  return view;
}

void ConvPlanes::row_offsets(std::span<i64> off) const {
  // Dense row r = (c * k + ky) * k + kx; rows past C * k * k (the K
  // tail) read the zero plane at offset 0. Phases and shifts advance
  // incrementally: this runs once per dispatch, where a divide per row
  // would cost more than the short convs it feeds.
  const i64 rows = static_cast<i64>(off.size());
  i64 r = 0;
  for (i64 c = 0; c < channels && r < rows; ++c) {
    for (i64 ky = 0, ry = 0, sy = 0; ky < kernel && r < rows; ++ky) {
      const i64 base =
          (1 + c * channel_planes + ry * phases) * plane_len + tap_offset;
      for (i64 kx = 0, rx = 0, sx = 0; kx < kernel && r < rows; ++kx) {
        off[static_cast<size_t>(r++)] =
            base + rx * plane_len + sy * plane_w + sx;
        if (++rx == stride) {
          rx = 0;
          ++sx;
        }
      }
      if (++ry == stride) {
        ry = 0;
        ++sy;
      }
    }
  }
  for (; r < rows; ++r) off[static_cast<size_t>(r)] = 0;
}

}  // namespace msh
