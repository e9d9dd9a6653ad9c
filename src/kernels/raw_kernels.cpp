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
  MSH_REQUIRE(g.channel_planes == phases * phases && g.tap_offset == 0);
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
  i16 halves[kPiece];  // a stride-2 image's even columns, then its odd
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
      if (s == 2 && whole && g.width % 2 == 0) {
        // Every row has the same column phases: split the whole image
        // once, then each phase row is a run of width / 2 codes. Column
        // ix is phase (ix + padding) % 2, plane column (ix + padding) / 2.
        const i64 half = g.width / 2;
        simd::deinterleave(codes, area, halves, halves + area / 2);
        for (i64 iy = 0; iy < g.height; ++iy, ry ^= 1, qy += ry == 0) {
          if (ry >= phases) continue;  // no tap reads the row
          i16* line = image + ry * phases * g.plane_len + qy * g.plane_w;
          for (i64 rx = 0; rx < phases; ++rx) {
            const i64 ix = (rx + g.padding) % 2;  // the phase's first column
            simd::copy_codes(line + rx * g.plane_len + (ix + g.padding) / 2,
                             halves + ix * (area / 2) + iy * half, half);
          }
        }
        continue;
      }
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

// ---- conv epilogue ----------------------------------------------------
//
// The epilogue's arithmetic is written once, over a lane group type:
// Scalar (one lane, the reference and every tail), F32x4 (SSE2) and
// F32x8 (AVX2). Each operator is the one IEEE operation of the scalar
// form, so every width computes the same bytes:
//   - i32 -> f32 converts round to nearest even (cvtdq2ps under the
//     default MXCSR, as the scalar cast);
//   - nn::Relu's v > 0 ? v : 0 is an and with an ordered v > 0 compare,
//     false on NaN and -0.0, so both give +0.0;
//   - std::max(v, 0.0f), which is v < 0 ? 0 : v, is max(0, v): x86 max
//     returns its second operand unless the first is greater, so NaN
//     and -0.0 pass through;
//   - the code is simd::quantize's divide, float clamp (NaN to qmin) and
//     round-half-even convert;
//   - + and * are one instruction each with the left operand as its
//     first source. When both operands are NaN, x86 returns the first
//     source's; a compiler may commute + and * (their values do not
//     change), so every width pins the order. The steps put the value
//     being finished on the left, as in the scalar form's codegen, where
//     it is the register the loop-invariant constant is folded into.

#if defined(__SSE2__) || defined(_M_X64) || defined(_M_AMD64)
#if defined(__AVX__)
#define MSH_FIRST_SOURCE(insn, a, b)                                    \
  [&] {                                                                 \
    auto r = a;                                                         \
    asm("v" insn " %2, %1, %0" : "=x"(r) : "x"(a), "x"(b));             \
    return r;                                                           \
  }()
#else
#define MSH_FIRST_SOURCE(insn, a, b)                                    \
  [&] {                                                                 \
    auto r = a;                                                         \
    asm(insn " %1, %0" : "+x"(r) : "x"(b));                             \
    return r;                                                           \
  }()
#endif
#endif

struct Scalar {
  f32 v;
  static Scalar load(const f32* p) { return {*p}; }
  /// p[0] and p[1]: one column pair of a stride-2 row.
  static void load_pairs(const f32* p, Scalar& even, Scalar& odd) {
    even = {p[0]};
    odd = {p[1]};
  }
  static Scalar convert(const i32* p) { return {static_cast<f32>(*p)}; }
  static Scalar set(f32 x) { return {x}; }
#if defined(__SSE2__) || defined(_M_X64) || defined(_M_AMD64)
  static Scalar low(__m128 x) { return {_mm_cvtss_f32(x)}; }
#endif
  void store(f32* p) const { *p = v; }
  /// The code of v / scale, clamped to [lo, hi] (QuantParams::quantize).
  void store_codes(i16* p, Scalar scale, Scalar lo, Scalar hi) const {
#if defined(__SSE2__) || defined(_M_X64) || defined(_M_AMD64)
    const __m128 t = _mm_div_ss(_mm_set_ss(v), _mm_set_ss(scale.v));
    *p = static_cast<i16>(_mm_cvtss_si32(
        _mm_min_ss(_mm_max_ss(t, _mm_set_ss(lo.v)), _mm_set_ss(hi.v))));
#else
    const QuantParams q{.scale = scale.v,
                        .qmin = static_cast<i32>(lo.v),
                        .qmax = static_cast<i32>(hi.v)};
    *p = static_cast<i16>(q.quantize(v));
#endif
  }
  Scalar relu_positive() const { return {v > 0.0f ? v : 0.0f}; }
  Scalar relu_max() const { return {std::max(v, 0.0f)}; }
#if defined(__SSE2__) || defined(_M_X64) || defined(_M_AMD64)
  friend Scalar operator+(Scalar a, Scalar b) {
    return {MSH_FIRST_SOURCE("addss", a.v, b.v)};
  }
  friend Scalar operator*(Scalar a, Scalar b) {
    return {MSH_FIRST_SOURCE("mulss", a.v, b.v)};
  }
#else
  friend Scalar operator+(Scalar a, Scalar b) { return {a.v + b.v}; }
  friend Scalar operator*(Scalar a, Scalar b) { return {a.v * b.v}; }
#endif
  friend Scalar operator-(Scalar a, Scalar b) { return {a.v - b.v}; }
};

#if defined(__SSE2__) || defined(_M_X64) || defined(_M_AMD64)
struct F32x4 {
  static constexpr i64 kWidth = 4;
  __m128 v;
  static F32x4 load(const f32* p) { return {_mm_loadu_ps(p)}; }
  /// even lane i = p[2i], odd lane i = p[2i + 1], for i < 4.
  static void load_pairs(const f32* p, F32x4& even, F32x4& odd) {
    const __m128 lo = _mm_loadu_ps(p), hi = _mm_loadu_ps(p + 4);
    even = {_mm_shuffle_ps(lo, hi, _MM_SHUFFLE(2, 0, 2, 0))};
    odd = {_mm_shuffle_ps(lo, hi, _MM_SHUFFLE(3, 1, 3, 1))};
  }
  static F32x4 convert(const i32* p) {
    return {_mm_cvtepi32_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)))};
  }
  static F32x4 set(f32 x) { return {_mm_set1_ps(x)}; }
#if defined(__AVX2__)
  static F32x4 low(__m256 x) { return {_mm256_castps256_ps128(x)}; }
#endif
  void store(f32* p) const { _mm_storeu_ps(p, v); }
  void store_codes(i16* p, F32x4 scale, F32x4 lo, F32x4 hi) const {
    const __m128i r = _mm_cvtps_epi32(
        _mm_min_ps(_mm_max_ps(_mm_div_ps(v, scale.v), lo.v), hi.v));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(p), _mm_packs_epi32(r, r));
  }
  F32x4 relu_positive() const {
    return {_mm_and_ps(v, _mm_cmpgt_ps(v, _mm_setzero_ps()))};
  }
  F32x4 relu_max() const { return {_mm_max_ps(_mm_setzero_ps(), v)}; }
  friend F32x4 operator+(F32x4 a, F32x4 b) {
    return {MSH_FIRST_SOURCE("addps", a.v, b.v)};
  }
  friend F32x4 operator-(F32x4 a, F32x4 b) { return {_mm_sub_ps(a.v, b.v)}; }
  friend F32x4 operator*(F32x4 a, F32x4 b) {
    return {MSH_FIRST_SOURCE("mulps", a.v, b.v)};
  }
};
#endif

#if defined(__AVX2__)
struct F32x8 {
  static constexpr i64 kWidth = 8;
  __m256 v;
  static F32x8 load(const f32* p) { return {_mm256_loadu_ps(p)}; }
  /// even lane i = p[2i], odd lane i = p[2i + 1], for i < 8.
  static void load_pairs(const f32* p, F32x8& even, F32x8& odd) {
    const __m256 lo = _mm256_loadu_ps(p), hi = _mm256_loadu_ps(p + 8);
    // In-lane shuffles leave the 128-bit halves as [lo0 lo2 hi0 hi2 |
    // lo4 lo6 hi4 hi6]; the 64-bit permute puts them in order.
    auto ordered = [](__m256 v) {
      return _mm256_castpd_ps(_mm256_permute4x64_pd(_mm256_castps_pd(v),
                                                    _MM_SHUFFLE(3, 1, 2, 0)));
    };
    even = {ordered(_mm256_shuffle_ps(lo, hi, _MM_SHUFFLE(2, 0, 2, 0)))};
    odd = {ordered(_mm256_shuffle_ps(lo, hi, _MM_SHUFFLE(3, 1, 3, 1)))};
  }
  static F32x8 convert(const i32* p) {
    return {_mm256_cvtepi32_ps(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)))};
  }
  static F32x8 set(f32 x) { return {_mm256_set1_ps(x)}; }
  void store(f32* p) const { _mm256_storeu_ps(p, v); }
  void store_codes(i16* p, F32x8 scale, F32x8 lo, F32x8 hi) const {
    const __m256i r = _mm256_cvtps_epi32(
        _mm256_min_ps(_mm256_max_ps(_mm256_div_ps(v, scale.v), lo.v), hi.v));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p),
                     _mm_packs_epi32(_mm256_castsi256_si128(r),
                                     _mm256_extracti128_si256(r, 1)));
  }
  F32x8 relu_positive() const {
    return {_mm256_and_ps(
        v, _mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_GT_OQ))};
  }
  F32x8 relu_max() const { return {_mm256_max_ps(_mm256_setzero_ps(), v)}; }
  friend F32x8 operator+(F32x8 a, F32x8 b) {
    return {MSH_FIRST_SOURCE("addps", a.v, b.v)};
  }
  friend F32x8 operator-(F32x8 a, F32x8 b) {
    return {_mm256_sub_ps(a.v, b.v)};
  }
  friend F32x8 operator*(F32x8 a, F32x8 b) {
    return {MSH_FIRST_SOURCE("mulps", a.v, b.v)};
  }
};
#endif

/// One channel's constants.
struct EpilogueChannel {
  f32 scale, bias;
  BnConstants bn;
  QuantParams next;
};

/// A channel's constants as lane groups of V, broadcast once per channel.
template <typename V>
struct EpilogueLanes {
  V scale, bias, g, mean, inv_std, beta, q_scale, q_min, q_max;
  explicit EpilogueLanes(const EpilogueChannel& c)
      : scale(V::set(c.scale)),
        bias(V::set(c.bias)),
        g(V::set(c.bn.g)),
        mean(V::set(c.bn.mean)),
        inv_std(V::set(c.bn.inv_std)),
        beta(V::set(c.bn.beta)),
        q_scale(V::set(c.next.scale)),
        q_min(V::set(static_cast<f32>(c.next.qmin))),
        q_max(V::set(static_cast<f32>(c.next.qmax))) {}
  /// The low lanes of a wider group's constants: the same registers.
  template <typename W>
  explicit EpilogueLanes(const EpilogueLanes<W>& w)
      : scale(V::low(w.scale.v)),
        bias(V::low(w.bias.v)),
        g(V::low(w.g.v)),
        mean(V::low(w.mean.v)),
        inv_std(V::low(w.inv_std.v)),
        beta(V::low(w.beta.v)),
        q_scale(V::low(w.q_scale.v)),
        q_min(V::low(w.q_min.v)),
        q_max(V::low(w.q_max.v)) {}
};

/// Lanes [j, j + V::kWidth) of one row, into `y` when kY and into
/// `codes` when kCodes.
template <typename V, bool kBn, bool kResidual, EpilogueRelu kRelu, bool kY,
          bool kCodes>
[[gnu::always_inline]] inline void finish_group(const EpilogueLanes<V>& k,
                                                const i32* acc,
                                                const f32* residual, f32* y,
                                                i16* codes, i64 j) {
  V v = V::convert(acc + j) * k.scale + k.bias;
  if constexpr (kBn) v = (v - k.mean) * k.g * k.inv_std + k.beta;
  if constexpr (kResidual) v = v + V::load(residual + j);
  if constexpr (kRelu == EpilogueRelu::kPositive) {
    v = v.relu_positive();
  } else if constexpr (kRelu == EpilogueRelu::kMax) {
    v = v.relu_max();
  }
  if constexpr (kY) v.store(y + j);
  if constexpr (kCodes) v.store_codes(codes + j, k.q_scale, k.q_min, k.q_max);
}

/// One channel's runs of `len` lanes: `rows` of them per image, over
/// `images` images. Run (n, i) starts at acc + n * image.acc + i *
/// row.acc, its residual and f32 output at n * image.y + i * row.y, its
/// codes at n * image.codes + i * row.codes (each pointer null when
/// absent).
struct EpilogueRuns {
  struct Strides {
    i64 acc = 0, y = 0, codes = 0;
  };
  const i32* acc;
  const f32* residual;
  f32* y;
  i16* codes;
  i64 images, rows, len;
  Strides image, row;
};

template <bool kBn, bool kResidual, EpilogueRelu kRelu, bool kY, bool kCodes>
void finish_runs(const EpilogueRuns& r, const EpilogueChannel& c) {
  // Each narrower group's constants are the low lanes of the widest's.
#if defined(__AVX2__)
  const EpilogueLanes<F32x8> k8(c);
  const EpilogueLanes<F32x4> k4(k8);
  const EpilogueLanes<Scalar> k1(k4);
#elif defined(__SSE2__) || defined(_M_X64) || defined(_M_AMD64)
  const EpilogueLanes<F32x4> k4(c);
  const EpilogueLanes<Scalar> k1(k4);
#else
  const EpilogueLanes<Scalar> k1(c);
#endif
  for (i64 n = 0; n < r.images; ++n) {
    const i32* acc = r.acc + n * r.image.acc;
    const f32* residual = kResidual ? r.residual + n * r.image.y : nullptr;
    f32* y = kY ? r.y + n * r.image.y : nullptr;
    i16* codes = kCodes ? r.codes + n * r.image.codes : nullptr;
    for (i64 i = 0; i < r.rows; ++i) {
      i64 j = 0;
#if defined(__AVX2__)
      for (; j + F32x8::kWidth <= r.len; j += F32x8::kWidth) {
        finish_group<F32x8, kBn, kResidual, kRelu, kY, kCodes>(
            k8, acc, residual, y, codes, j);
      }
#endif
#if defined(__SSE2__) || defined(_M_X64) || defined(_M_AMD64)
      for (; j + F32x4::kWidth <= r.len; j += F32x4::kWidth) {
        finish_group<F32x4, kBn, kResidual, kRelu, kY, kCodes>(
            k4, acc, residual, y, codes, j);
      }
      // A short tail is the last group, again: its overlap with the group
      // before is finished twice, to the same bytes.
      if (j < r.len && r.len >= F32x4::kWidth) {
        finish_group<F32x4, kBn, kResidual, kRelu, kY, kCodes>(
            k4, acc, residual, y, codes, r.len - F32x4::kWidth);
        j = r.len;
      }
#endif
      for (; j < r.len; ++j) {
        finish_group<Scalar, kBn, kResidual, kRelu, kY, kCodes>(
            k1, acc, residual, y, codes, j);
      }
      acc += r.row.acc;
      if constexpr (kResidual) residual += r.row.y;
      if constexpr (kY) y += r.row.y;
      if constexpr (kCodes) codes += r.row.codes;
    }
  }
}

template <bool kBn, bool kResidual, EpilogueRelu kRelu>
void conv_epilogue_body(const i32* acc, const ConvPlanes& g, i64 channels,
                        f32 scale, const EpilogueSteps& steps,
                        const EpilogueOutputs& out) {
  const ConvPlanes* next = out.next;
  auto channel = [&](i64 c) {
    EpilogueChannel k{.scale = scale,
                      .bias = steps.bias != nullptr ? steps.bias[c] : 0.0f,
                      .bn = {},
                      .next = out.next_params};
    if constexpr (kBn) k.bn = steps.bn[c];
    return k;
  };
  if (out.planes != nullptr) {
    std::memset(out.planes, 0,
                static_cast<size_t>(next->plane_len) * sizeof(i16));
  }
  // Shared plane geometry and planes only: each channel's lanes are one
  // run, shifted by the next conv's padding. Ring lanes land on its
  // padding, so they are zeroed after the run.
  if (out.planes != nullptr && out.y == nullptr && !kResidual &&
      next->plane_h == g.plane_h && next->plane_w == g.plane_w) {
    const i64 shift = next->padding * (next->plane_w + 1);
    const i64 last = g.position(g.batch - 1, g.out_h - 1, g.out_w - 1) + 1;
    for (i64 c = 0; c < channels; ++c) {
      i16* plane = out.planes + (1 + c) * next->plane_len;
      std::memset(plane, 0, static_cast<size_t>(shift) * sizeof(i16));
      i16* codes = plane + shift;
      finish_runs<kBn, kResidual, kRelu, false, true>(
          {.acc = acc + c * g.positions,
           .residual = nullptr,
           .y = nullptr,
           .codes = codes,
           .images = 1,
           .rows = 1,
           .len = last,
           .image = {},
           .row = {}},
          channel(c));
      std::memset(codes + last, 0,
                  static_cast<size_t>(next->plane_len - shift - last) *
                      sizeof(i16));
      for (i64 n = 0; n < g.batch; ++n) {
        for (i64 oy = 0; oy < g.plane_h; ++oy) {
          const i64 from = g.position(n, oy, oy < g.out_h ? g.out_w : 0);
          const i64 to = std::min(g.position(n, oy, 0) + g.plane_w, last);
          if (from < to) std::fill(codes + from, codes + to, i16{0});
        }
      }
    }
    return;
  }
  // Otherwise row by row, a channel at a time, to y, the planes or both.
  if (out.planes != nullptr) {
    std::memset(out.planes + next->plane_len, 0,
                static_cast<size_t>(channels * next->plane_len) * sizeof(i16));
  }
  const i64 spatial = g.out_h * g.out_w;
  for (i64 c = 0; c < channels; ++c) {
    EpilogueRuns runs{
        .acc = acc + c * g.positions,
        .residual = kResidual ? steps.residual + c * spatial : nullptr,
        .y = out.y != nullptr ? out.y + c * spatial : nullptr,
        .codes = nullptr,
        .images = g.batch,
        .rows = g.out_h,
        .len = g.out_w,
        .image = {.acc = g.plane_h * g.plane_w, .y = channels * spatial},
        .row = {.acc = g.plane_w, .y = g.out_w}};
    if (out.planes == nullptr) {
      finish_runs<kBn, kResidual, kRelu, true, false>(runs, channel(c));
      continue;
    }
    runs.codes = out.planes + (1 + c) * next->plane_len +
                 next->position(0, next->padding, next->padding);
    runs.image.codes = next->plane_h * next->plane_w;
    runs.row.codes = next->plane_w;
    if (out.y != nullptr) {
      finish_runs<kBn, kResidual, kRelu, true, true>(runs, channel(c));
    } else {
      finish_runs<kBn, kResidual, kRelu, false, true>(runs, channel(c));
    }
  }
}

template <bool kBn, bool kResidual>
void conv_epilogue_relu(const i32* acc, const ConvPlanes& g, i64 channels,
                        f32 scale, const EpilogueSteps& steps,
                        const EpilogueOutputs& out) {
  switch (steps.relu) {
    case EpilogueRelu::kNone:
      return conv_epilogue_body<kBn, kResidual, EpilogueRelu::kNone>(
          acc, g, channels, scale, steps, out);
    case EpilogueRelu::kPositive:
      return conv_epilogue_body<kBn, kResidual, EpilogueRelu::kPositive>(
          acc, g, channels, scale, steps, out);
    case EpilogueRelu::kMax:
      return conv_epilogue_body<kBn, kResidual, EpilogueRelu::kMax>(
          acc, g, channels, scale, steps, out);
  }
}

void conv_epilogue(const i32* acc, const ConvPlanes& g, i64 channels,
                   f32 scale, const EpilogueSteps& steps,
                   const EpilogueOutputs& out) {
  MSH_REQUIRE(out.y != nullptr || out.planes != nullptr);
  if (out.planes != nullptr) {
    const ConvPlanes& next = *out.next;
    MSH_REQUIRE(next.stride == 1 && next.tap_offset == 0 &&
                next.batch == g.batch && next.channels == channels &&
                next.height == g.out_h && next.width == g.out_w);
  }
  const bool bn = steps.bn != nullptr, residual = steps.residual != nullptr;
  if (bn && residual) {
    conv_epilogue_relu<true, true>(acc, g, channels, scale, steps, out);
  } else if (bn) {
    conv_epilogue_relu<true, false>(acc, g, channels, scale, steps, out);
  } else if (residual) {
    conv_epilogue_relu<false, true>(acc, g, channels, scale, steps, out);
  } else {
    conv_epilogue_relu<false, false>(acc, g, channels, scale, steps, out);
  }
}

// ---- average pool into code planes ----------------------------------
//
// avg_pool_eval's sums, element for element: 0.0f plus each window
// element in row-major order, each add one IEEE operation with the sum
// as its first source, then one multiply by 1 / (kernel * kernel); then
// the code, as the epilogue stores it. The 2 x 2, stride-2 pool of a Rep
// module runs over lane groups of output columns, the column pairs split
// out of two loads per input row; any other window goes one element at
// a time through the same Scalar operations.

/// Output columns [j, j + V::kWidth) of one 2 x 2, stride-2 row: `top`
/// and `bottom` are the window's two input rows.
template <typename V>
[[gnu::always_inline]] inline void pool_2x2_group(const f32* top,
                                                  const f32* bottom,
                                                  const EpilogueLanes<V>& k,
                                                  i16* codes, i64 j) {
  V a, b, c, d;
  V::load_pairs(top + 2 * j, a, b);
  V::load_pairs(bottom + 2 * j, c, d);
  const V sum = V::set(0.0f) + a + b + c + d;
  (sum * k.scale).store_codes(codes + j, k.q_scale, k.q_min, k.q_max);
}

void avg_pool_planes(const f32* x, i64 height, i64 width, i64 kernel,
                     i64 stride, const ConvPlanes& next,
                     const QuantParams& params, i16* planes) {
  MSH_REQUIRE(kernel > 0 && stride > 0);
  MSH_REQUIRE(next.stride == 1 && next.tap_offset == 0);
  const i64 ho = next.height, wo = next.width;
  MSH_REQUIRE(ho == (height - kernel) / stride + 1 &&
              wo == (width - kernel) / stride + 1 && ho > 0 && wo > 0);
  std::memset(planes, 0, static_cast<size_t>(next.size()) * sizeof(i16));
  // Only the multiply's constant and the code's are used.
  const EpilogueChannel constants{
      .scale = 1.0f / static_cast<f32>(kernel * kernel),
      .bias = 0.0f,
      .bn = {},
      .next = params};
#if defined(__AVX2__)
  const EpilogueLanes<F32x8> k8(constants);
  const EpilogueLanes<F32x4> k4(k8);
  const EpilogueLanes<Scalar> k1(k4);
#elif defined(__SSE2__) || defined(_M_X64) || defined(_M_AMD64)
  const EpilogueLanes<F32x4> k4(constants);
  const EpilogueLanes<Scalar> k1(k4);
#else
  const EpilogueLanes<Scalar> k1(constants);
#endif
  const bool pairs = kernel == 2 && stride == 2;
  for (i64 c = 0; c < next.channels; ++c) {
    i16* plane = planes + (1 + c) * next.plane_len;
    for (i64 n = 0; n < next.batch; ++n) {
      const f32* image = x + (n * next.channels + c) * height * width;
      for (i64 oy = 0; oy < ho; ++oy) {
        const f32* top = image + oy * stride * width;
        i16* codes = plane + next.position(n, oy + next.padding, next.padding);
        if (!pairs) {
          for (i64 ox = 0; ox < wo; ++ox) {
            const f32* window = top + ox * stride;
            Scalar sum = Scalar::set(0.0f);
            for (i64 ky = 0; ky < kernel; ++ky) {
              for (i64 kx = 0; kx < kernel; ++kx) {
                sum = sum + Scalar::load(window + ky * width + kx);
              }
            }
            (sum * k1.scale).store_codes(codes + ox, k1.q_scale, k1.q_min,
                                         k1.q_max);
          }
          continue;
        }
        const f32* bottom = top + width;
        i64 j = 0;
#if defined(__AVX2__)
        for (; j + F32x8::kWidth <= wo; j += F32x8::kWidth) {
          pool_2x2_group(top, bottom, k8, codes, j);
        }
#endif
#if defined(__SSE2__) || defined(_M_X64) || defined(_M_AMD64)
        for (; j + F32x4::kWidth <= wo; j += F32x4::kWidth) {
          pool_2x2_group(top, bottom, k4, codes, j);
        }
        // A short tail is the last group, again, as in the epilogue.
        if (j < wo && wo >= F32x4::kWidth) {
          pool_2x2_group(top, bottom, k4, codes, wo - F32x4::kWidth);
          j = wo;
        }
#endif
        for (; j < wo; ++j) pool_2x2_group(top, bottom, k1, codes, j);
      }
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
    .conv_epilogue = conv_epilogue,
    .avg_pool_planes = avg_pool_planes,
    .raw_csc_matmul = raw_csc_matmul,
    .pair_mac = pair_mac,
    .quantize_i8 = quantize<i8>,
    .quantize_i16 = quantize<i16>,
    .widen_transpose = widen_transpose,
};

}  // namespace msh::isa::MSH_SIMD_ISA
