// Portable SIMD primitives for the raw kernel backend. Dispatch is
// compile-time: AVX2 when the build enables it, else SSE2 (baseline on
// x86-64), else NEON, else scalar. Every variant computes the identical
// result, so backend bit-exactness never depends on which one the
// compiler picked.
//
// multiply_accumulate is the raw matmul's widening multiply-accumulate:
// acc[j] += w * x[j] with INT8-ranged operands. |w| <= 128 and
// |x[j]| <= 128, so every product fits in 15 bits — a 16-bit lane
// multiply is exact, and the i32 accumulation wraps identically to the
// modeled path's truncate-at-the-end i64 sum (two's complement).
//
// widen_transpose lays a batch block of INT8 rows out for it.
//
// quantize is the float->INT8 activation boundary both backends share;
// its scalar fallback (and reference) is QuantParams::quantize.
#pragma once

#include "common/types.h"
#include "quant/quant.h"

#if defined(__AVX2__)
#include <immintrin.h>
#elif defined(__SSE2__) || defined(_M_X64) || defined(_M_AMD64)
#include <emmintrin.h>
#elif defined(__ARM_NEON)
#include <arm_neon.h>
#endif

namespace msh::simd {

#if defined(__AVX2__)
inline constexpr const char* kIsa = "avx2";
#elif defined(__SSE2__) || defined(_M_X64) || defined(_M_AMD64)
inline constexpr const char* kIsa = "sse2";
#elif defined(__ARM_NEON)
inline constexpr const char* kIsa = "neon";
#else
inline constexpr const char* kIsa = "scalar";
#endif

/// acc[j] += w * x[j] for j in [0, n), 32-bit wrap-around semantics.
/// Requires |w| <= 128 and |x[j]| <= 128 (INT8-ranged).
inline void multiply_accumulate(i32* acc, i32 w, const i16* x, i64 n) {
  i64 j = 0;
#if defined(__AVX2__)
  const __m256i wv = _mm256_set1_epi32(w);
  for (; j + 8 <= n; j += 8) {
    const __m128i x16 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(x + j));
    const __m256i x32 = _mm256_cvtepi16_epi32(x16);
    const __m256i prod = _mm256_mullo_epi32(x32, wv);
    __m256i* a = reinterpret_cast<__m256i*>(acc + j);
    _mm256_storeu_si256(a, _mm256_add_epi32(_mm256_loadu_si256(a), prod));
  }
#elif defined(__SSE2__) || defined(_M_X64) || defined(_M_AMD64)
  const __m128i wv = _mm_set1_epi16(static_cast<short>(w));
  for (; j + 8 <= n; j += 8) {
    const __m128i xv =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(x + j));
    // Products fit 15 bits, so the 16-bit lane multiply is exact; widen
    // to i32 by interleaving with the sign and accumulate.
    const __m128i prod = _mm_mullo_epi16(xv, wv);
    const __m128i sign = _mm_srai_epi16(prod, 15);
    const __m128i lo = _mm_unpacklo_epi16(prod, sign);
    const __m128i hi = _mm_unpackhi_epi16(prod, sign);
    __m128i* a0 = reinterpret_cast<__m128i*>(acc + j);
    __m128i* a1 = reinterpret_cast<__m128i*>(acc + j + 4);
    _mm_storeu_si128(a0, _mm_add_epi32(_mm_loadu_si128(a0), lo));
    _mm_storeu_si128(a1, _mm_add_epi32(_mm_loadu_si128(a1), hi));
  }
#elif defined(__ARM_NEON)
  for (; j + 4 <= n; j += 4) {
    const int16x4_t xv = vld1_s16(x + j);
    int32x4_t a = vld1q_s32(acc + j);
    a = vmlal_n_s16(a, xv, static_cast<i16>(w));
    vst1q_s32(acc + j, a);
  }
#endif
  for (; j < n; ++j) {
    acc[j] = static_cast<i32>(static_cast<u32>(acc[j]) +
                              static_cast<u32>(w * x[j]));
  }
}

#if defined(__SSE2__) || defined(_M_X64) || defined(_M_AMD64)
/// In-place 8 x 8 i16 transpose: t[i] holds row i on entry, column i on
/// exit. Three rounds of unpacks, interleaving 16-, 32- then 64-bit units.
inline void transpose_8x8_i16(__m128i* t) {
  const __m128i a0 = _mm_unpacklo_epi16(t[0], t[1]);
  const __m128i a1 = _mm_unpackhi_epi16(t[0], t[1]);
  const __m128i a2 = _mm_unpacklo_epi16(t[2], t[3]);
  const __m128i a3 = _mm_unpackhi_epi16(t[2], t[3]);
  const __m128i a4 = _mm_unpacklo_epi16(t[4], t[5]);
  const __m128i a5 = _mm_unpackhi_epi16(t[4], t[5]);
  const __m128i a6 = _mm_unpacklo_epi16(t[6], t[7]);
  const __m128i a7 = _mm_unpackhi_epi16(t[6], t[7]);
  const __m128i b0 = _mm_unpacklo_epi32(a0, a2);  // columns 0-1 of rows 0-3
  const __m128i b1 = _mm_unpackhi_epi32(a0, a2);  // columns 2-3
  const __m128i b2 = _mm_unpacklo_epi32(a1, a3);  // columns 4-5
  const __m128i b3 = _mm_unpackhi_epi32(a1, a3);  // columns 6-7
  const __m128i b4 = _mm_unpacklo_epi32(a4, a6);  // same for rows 4-7
  const __m128i b5 = _mm_unpackhi_epi32(a4, a6);
  const __m128i b6 = _mm_unpacklo_epi32(a5, a7);
  const __m128i b7 = _mm_unpackhi_epi32(a5, a7);
  t[0] = _mm_unpacklo_epi64(b0, b4);
  t[1] = _mm_unpackhi_epi64(b0, b4);
  t[2] = _mm_unpacklo_epi64(b1, b5);
  t[3] = _mm_unpackhi_epi64(b1, b5);
  t[4] = _mm_unpacklo_epi64(b2, b6);
  t[5] = _mm_unpackhi_epi64(b2, b6);
  t[6] = _mm_unpacklo_epi64(b3, b7);
  t[7] = _mm_unpackhi_epi64(b3, b7);
}
#endif

/// xt[c * rows + r] = x[r * cols + c]: transposes a row-major
/// [rows x cols] INT8 block into [cols x rows], widened to i16 — the
/// layout multiply_accumulate streams through. On x86 it moves 8 x 16
/// tiles (eight 16-byte row loads, sign-extended to two 8 x 8 i16 tiles
/// and transposed in registers); edges that do not fill a tile go
/// element by element. Pure data movement, so every variant is exact.
inline void widen_transpose(const i8* x, i64 rows, i64 cols, i16* xt) {
  i64 r0 = 0;
#if defined(__SSE2__) || defined(_M_X64) || defined(_M_AMD64)
  for (; r0 + 8 <= rows; r0 += 8) {
    i64 c0 = 0;
    for (; c0 + 16 <= cols; c0 += 16) {
      __m128i lo[8], hi[8];
      for (i64 i = 0; i < 8; ++i) {
        const __m128i v = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(x + (r0 + i) * cols + c0));
        // Each byte paired with itself, then shifted down: sign-extend.
        lo[i] = _mm_srai_epi16(_mm_unpacklo_epi8(v, v), 8);
        hi[i] = _mm_srai_epi16(_mm_unpackhi_epi8(v, v), 8);
      }
      transpose_8x8_i16(lo);
      transpose_8x8_i16(hi);
      for (i64 i = 0; i < 8; ++i) {
        _mm_storeu_si128(
            reinterpret_cast<__m128i*>(xt + (c0 + i) * rows + r0), lo[i]);
        _mm_storeu_si128(
            reinterpret_cast<__m128i*>(xt + (c0 + 8 + i) * rows + r0),
            hi[i]);
      }
    }
    for (; c0 < cols; ++c0) {
      for (i64 r = r0; r < r0 + 8; ++r) xt[c0 * rows + r] = x[r * cols + c0];
    }
  }
#endif
  for (; r0 < rows; ++r0) {
    for (i64 c = 0; c < cols; ++c) xt[c * rows + r0] = x[r0 * cols + c];
  }
}

/// codes[i] = params.quantize(x[i]) for i in [0, n). Each vector body
/// reproduces the scalar reference exactly:
///   - the divide is one correctly rounded IEEE op in every variant (no
///     multiply-by-reciprocal, nothing for FMA contraction to fuse);
///   - the clamp runs in float before converting and keeps the scalar's
///     NaN -> qmin rule: x86 max/min return their second operand on an
///     unordered compare, NEON's maxnm/minnm return the non-NaN one
///     (the quotient's NaNs are all quiet, which maxnm needs);
///   - after the clamp every value lies in [qmin, qmax], where cvtps2dq
///     (nearest-even under the default MXCSR) and vcvtnq both equal
///     nearbyint, so no variant's out-of-range conversion rule (x86's
///     INT_MIN, NEON's saturation) is ever reached.
inline void quantize(const f32* x, i64 n, const QuantParams& params,
                     i8* codes) {
  i64 j = 0;
#if defined(__AVX2__)
  const __m256 scale = _mm256_set1_ps(params.scale);
  const __m256 lo = _mm256_set1_ps(static_cast<f32>(params.qmin));
  const __m256 hi = _mm256_set1_ps(static_cast<f32>(params.qmax));
  // Eight codes as i32, narrowed to the eight i16s of one __m128i.
  auto eight = [&](const f32* p) {
    const __m256 q = _mm256_div_ps(_mm256_loadu_ps(p), scale);
    const __m256i r =
        _mm256_cvtps_epi32(_mm256_min_ps(_mm256_max_ps(q, lo), hi));
    return _mm_packs_epi32(_mm256_castsi256_si128(r),
                           _mm256_extracti128_si256(r, 1));
  };
  for (; j + 16 <= n; j += 16) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(codes + j),
                     _mm_packs_epi16(eight(x + j), eight(x + j + 8)));
  }
#elif defined(__SSE2__) || defined(_M_X64) || defined(_M_AMD64)
  const __m128 scale = _mm_set1_ps(params.scale);
  const __m128 lo = _mm_set1_ps(static_cast<f32>(params.qmin));
  const __m128 hi = _mm_set1_ps(static_cast<f32>(params.qmax));
  auto four = [&](const f32* p) {
    const __m128 q = _mm_div_ps(_mm_loadu_ps(p), scale);
    return _mm_cvtps_epi32(_mm_min_ps(_mm_max_ps(q, lo), hi));
  };
  for (; j + 16 <= n; j += 16) {
    const __m128i a = _mm_packs_epi32(four(x + j), four(x + j + 4));
    const __m128i b = _mm_packs_epi32(four(x + j + 8), four(x + j + 12));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(codes + j),
                     _mm_packs_epi16(a, b));
  }
#elif defined(__ARM_NEON) && defined(__aarch64__)
  const float32x4_t scale = vdupq_n_f32(params.scale);
  const float32x4_t lo = vdupq_n_f32(static_cast<f32>(params.qmin));
  const float32x4_t hi = vdupq_n_f32(static_cast<f32>(params.qmax));
  auto four = [&](const f32* p) {
    const float32x4_t q = vdivq_f32(vld1q_f32(p), scale);
    return vqmovn_s32(vcvtnq_s32_f32(vminnmq_f32(vmaxnmq_f32(q, lo), hi)));
  };
  for (; j + 16 <= n; j += 16) {
    const int16x8_t a = vcombine_s16(four(x + j), four(x + j + 4));
    const int16x8_t b = vcombine_s16(four(x + j + 8), four(x + j + 12));
    vst1q_s8(codes + j, vcombine_s8(vqmovn_s16(a), vqmovn_s16(b)));
  }
#endif
  for (; j < n; ++j) codes[j] = static_cast<i8>(params.quantize(x[j]));
}

}  // namespace msh::simd
