// Portable SIMD primitives for the raw kernel backend. Each translation
// unit gets the widest bodies its own compile flags allow: AVX2 when
// they enable it, else SSE2 (baseline on x86-64), else NEON, else
// scalar. Every variant computes the identical result, so backend
// bit-exactness never depends on which one the compiler picked.
//
// Namespace rule: everything below but kIsa lives in an inline
// namespace named for that ISA (msh::simd::avx2, sse2, neon, scalar),
// chosen by the same #if that chooses the bodies, and inside it in an
// unnamed namespace. A -mavx2 translation unit and a baseline one
// therefore never define the same mangled name, and no translation unit
// defines a weak copy a linker could merge: the linker can never hand a
// VEX-encoded body to a baseline caller. The raw kernels that inline
// these bodies are compiled once per ISA and picked at run time from the
// CPU (kernels/raw_kernels.h); kIsa names the pick.
//
// pair_mac is the raw kernels' multiply-accumulate: two compressed
// entries per step against one pre-packed weight word, over a tile of
// output lanes held in registers. Its i32 sums wrap identically to the
// modeled path's truncate-at-the-end i64 sum (two's complement).
//
// widen_transpose lays a batch block of INT8 rows out for it (linear
// layers; convs read padded code planes directly, kernels/direct_conv.h).
//
// quantize is the float->INT8 activation boundary both backends share;
// its scalar fallback (and reference) is QuantParams::quantize.
#pragma once

#include <type_traits>

#include "common/types.h"
#include "quant/quant.h"

#if defined(__AVX2__)
#include <immintrin.h>
#define MSH_SIMD_ISA avx2
#elif defined(__SSE2__) || defined(_M_X64) || defined(_M_AMD64)
#include <emmintrin.h>
#define MSH_SIMD_ISA sse2
#elif defined(__ARM_NEON)
#include <arm_neon.h>
#define MSH_SIMD_ISA neon
#else
#define MSH_SIMD_ISA scalar
#endif

namespace msh::simd {

/// The ISA of the raw kernel copy this CPU runs ("avx2", "sse2", "neon"
/// or "scalar"), as raw_kernels() (kernels/raw_kernels.h) chose it during
/// static initialization: read it from main() on, not from another
/// static initializer. Not the bodies this translation unit inlines —
/// those are MSH_SIMD_ISA's.
extern const char* const kIsa;

inline namespace MSH_SIMD_ISA {
namespace {

/// Output lanes one pair_mac call keeps in registers.
inline constexpr i64 kMacTile = 32;

/// The 32-bit word pair_mac multiplies an entry pair by: w0 in the low
/// i16 lane, w1 in the high one — the operand layout of pmaddwd.
constexpr i32 pack_pair(i8 w0, i8 w1) {
  return static_cast<i32>(static_cast<u32>(static_cast<u16>(w0)) |
                          static_cast<u32>(static_cast<u16>(w1)) << 16);
}

namespace detail {

/// Scalar pair_mac over lanes [j0, n): the reference every vector body
/// reproduces, and the tail they leave.
inline void pair_mac_scalar(i32* out, i64 j0, i64 n, const i16* x,
                            const i32* row, const i64* off, const i32* w,
                            i64 pairs) {
  for (i64 j = j0; j < n; ++j) {
    u32 acc = 0;
    for (i64 p = 0; p < pairs; ++p) {
      const i32 lo = static_cast<i16>(w[p]), hi = w[p] >> 16;
      acc += static_cast<u32>(lo * x[off[row[2 * p]] + j] +
                              hi * x[off[row[2 * p + 1]] + j]);
    }
    out[j] = static_cast<i32>(acc);
  }
}

#if defined(__SSE2__) || defined(_M_X64) || defined(_M_AMD64)
/// kBlocks x 8 lanes from j0, accumulators in registers across pairs.
template <int kBlocks>
inline void pair_mac_sse2(i32* out, i64 j0, const i16* x, const i32* row,
                          const i64* off, const i32* w, i64 pairs) {
  __m128i acc[2 * kBlocks];
  for (__m128i& a : acc) a = _mm_setzero_si128();
  for (i64 p = 0; p < pairs; ++p) {
    const i16* a = x + off[row[2 * p]] + j0;
    const i16* b = x + off[row[2 * p + 1]] + j0;
    const __m128i wv = _mm_set1_epi32(w[p]);
#pragma GCC unroll 4
    for (int k = 0; k < kBlocks; ++k) {
      const __m128i va =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + 8 * k));
      const __m128i vb =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + 8 * k));
      const __m128i lo = _mm_unpacklo_epi16(va, vb);
      const __m128i hi = _mm_unpackhi_epi16(va, vb);
      const int e = 2 * k, o = 2 * k + 1;
      acc[e] = _mm_add_epi32(acc[e], _mm_madd_epi16(lo, wv));
      acc[o] = _mm_add_epi32(acc[o], _mm_madd_epi16(hi, wv));
    }
  }
  for (int k = 0; k < 2 * kBlocks; ++k) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + j0 + 4 * k), acc[k]);
  }
}
#endif

#if defined(__AVX2__)
/// kBlocks x 16 lanes from j0. The in-lane unpacks leave each
/// accumulator pair holding outputs {0-3, 8-11} and {4-7, 12-15}; the
/// 128-bit permutes put them back in order on the way out.
template <int kBlocks>
inline void pair_mac_avx2(i32* out, i64 j0, const i16* x, const i32* row,
                          const i64* off, const i32* w, i64 pairs) {
  __m256i acc[2 * kBlocks];
  for (__m256i& a : acc) a = _mm256_setzero_si256();
  for (i64 p = 0; p < pairs; ++p) {
    const i16* a = x + off[row[2 * p]] + j0;
    const i16* b = x + off[row[2 * p + 1]] + j0;
    const __m256i wv = _mm256_set1_epi32(w[p]);
#pragma GCC unroll 2
    for (int k = 0; k < kBlocks; ++k) {
      const __m256i va =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + 16 * k));
      const __m256i vb =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + 16 * k));
      const __m256i lo = _mm256_unpacklo_epi16(va, vb);
      const __m256i hi = _mm256_unpackhi_epi16(va, vb);
      const int e = 2 * k, o = 2 * k + 1;
      acc[e] = _mm256_add_epi32(acc[e], _mm256_madd_epi16(lo, wv));
      acc[o] = _mm256_add_epi32(acc[o], _mm256_madd_epi16(hi, wv));
    }
  }
  for (int k = 0; k < kBlocks; ++k) {
    const __m256i lo = acc[2 * k], hi = acc[2 * k + 1];
    __m256i* o = reinterpret_cast<__m256i*>(out + j0 + 16 * k);
    _mm256_storeu_si256(o, _mm256_permute2x128_si256(lo, hi, 0x20));
    _mm256_storeu_si256(o + 1, _mm256_permute2x128_si256(lo, hi, 0x31));
  }
}
#endif

#if defined(__ARM_NEON)
/// kBlocks x 8 lanes from j0: widening multiply-accumulate of each
/// entry against its own weight (vmlal wraps like the adds it replaces).
template <int kBlocks>
inline void pair_mac_neon(i32* out, i64 j0, const i16* x, const i32* row,
                          const i64* off, const i32* w, i64 pairs) {
  int32x4_t acc[2 * kBlocks];
  for (int32x4_t& a : acc) a = vdupq_n_s32(0);
  for (i64 p = 0; p < pairs; ++p) {
    const i16* a = x + off[row[2 * p]] + j0;
    const i16* b = x + off[row[2 * p + 1]] + j0;
    const i16 lo = static_cast<i16>(w[p]);
    const i16 hi = static_cast<i16>(w[p] >> 16);
    for (int k = 0; k < kBlocks; ++k) {
      const int16x8_t va = vld1q_s16(a + 8 * k);
      const int16x8_t vb = vld1q_s16(b + 8 * k);
      const int e = 2 * k, o = 2 * k + 1;
      acc[e] = vmlal_n_s16(acc[e], vget_low_s16(va), lo);
      acc[e] = vmlal_n_s16(acc[e], vget_low_s16(vb), hi);
      acc[o] = vmlal_n_s16(acc[o], vget_high_s16(va), lo);
      acc[o] = vmlal_n_s16(acc[o], vget_high_s16(vb), hi);
    }
  }
  for (int k = 0; k < 2 * kBlocks; ++k) vst1q_s32(out + j0 + 4 * k, acc[k]);
}
#endif

}  // namespace detail

/// The raw kernels' pairwise multiply-accumulate, over one tile of n <=
/// kMacTile output lanes:
///   out[j] = sum over p < pairs of lo(w[p]) * a_p[j] + hi(w[p]) * b_p[j]
/// with a_p = x + off[row[2p]], b_p = x + off[row[2p + 1]], lo/hi the
/// two i16 halves of pack_pair's word, and 32-bit wrap-around sums.
/// Each vector body interleaves the two entries' activations and takes
/// one pmaddwd per four lanes (NEON: two widening MACs), holding the
/// whole tile's accumulators in registers across every pair; lanes a
/// body does not cover go scalar. With INT8-ranged operands each product
/// is at most 2^14 and a pair's sum at most 2^15, so no 16- or 32-bit
/// intermediate saturates and wrap-around accumulation is exact in any
/// order: every variant is bit-identical. Reads exactly lanes [0, n) of
/// every a_p and b_p.
inline void pair_mac(i32* out, i64 n, const i16* x, const i32* row,
                     const i64* off, const i32* w, i64 pairs) {
  MSH_REQUIRE(n >= 0 && n <= kMacTile);
  i64 j = 0;
#if defined(__AVX2__)
  if (n == kMacTile) {
    detail::pair_mac_avx2<2>(out, 0, x, row, off, w, pairs);
    return;
  }
  if (n >= 16) {
    detail::pair_mac_avx2<1>(out, 0, x, row, off, w, pairs);
    j = 16;
  }
#endif
#if defined(__SSE2__) || defined(_M_X64) || defined(_M_AMD64)
  if (n == kMacTile) {
    detail::pair_mac_sse2<4>(out, 0, x, row, off, w, pairs);
    return;
  }
  for (; j + 8 <= n; j += 8) {
    detail::pair_mac_sse2<1>(out, j, x, row, off, w, pairs);
  }
#elif defined(__ARM_NEON)
  if (n == kMacTile) {
    detail::pair_mac_neon<4>(out, 0, x, row, off, w, pairs);
    return;
  }
  for (; j + 8 <= n; j += 8) {
    detail::pair_mac_neon<1>(out, j, x, row, off, w, pairs);
  }
#endif
  detail::pair_mac_scalar(out, j, n, x, row, off, w, pairs);
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
/// layout raw_csc_matmul's pair_mac streams through. On x86 it moves 8 x 16
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

/// even[i] = x[2i] and odd[i] = x[2i + 1], for the n codes of x (odd
/// gets n / 2 of them, even the rest): the column phases of a stride-2
/// row, or of a whole image of even width. Pure data movement; the SSE2
/// body shifts each i32 pair apart and packs, which is exact for any
/// i16.
inline void deinterleave(const i16* x, i64 n, i16* even, i16* odd) {
  i64 j = 0;
#if defined(__SSE2__) || defined(_M_X64) || defined(_M_AMD64)
  for (; j + 16 <= n; j += 16) {
    const __m128i a = _mm_loadu_si128(reinterpret_cast<const __m128i*>(x + j));
    const __m128i b =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(x + j + 8));
    _mm_storeu_si128(
        reinterpret_cast<__m128i*>(even + j / 2),
        _mm_packs_epi32(_mm_srai_epi32(_mm_slli_epi32(a, 16), 16),
                        _mm_srai_epi32(_mm_slli_epi32(b, 16), 16)));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(odd + j / 2),
                     _mm_packs_epi32(_mm_srai_epi32(a, 16),
                                     _mm_srai_epi32(b, 16)));
  }
#endif
  for (; j + 1 < n; j += 2) {
    even[j / 2] = x[j];
    odd[j / 2] = x[j + 1];
  }
  if (j < n) even[j / 2] = x[j];
}

/// dst[i] = src[i] for i in [0, n), for the short runs of a code plane
/// row: 8-code vector moves with an overlapping last one (two 4-code
/// moves below 8 codes), so no call and nothing outside [0, n) of dst
/// is written.
inline void copy_codes(i16* dst, const i16* src, i64 n) {
  i64 j = 0;
#if defined(__SSE2__) || defined(_M_X64) || defined(_M_AMD64)
  auto move8 = [&](i64 at) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + at));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + at), v);
  };
  if (n >= 8) {
    for (; j + 8 <= n; j += 8) move8(j);
    if (j < n) move8(n - 8);
    return;
  }
  if (n >= 4) {
    _mm_storel_epi64(reinterpret_cast<__m128i*>(dst),
                     _mm_loadl_epi64(reinterpret_cast<const __m128i*>(src)));
    _mm_storel_epi64(
        reinterpret_cast<__m128i*>(dst + n - 4),
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(src + n - 4)));
    return;
  }
#endif
  for (; j < n; ++j) dst[j] = src[j];
}

/// codes[i] = params.quantize(x[i]) for i in [0, n), as INT8 codes or
/// as the same codes widened to i16 (the conv code planes). Each vector
/// body reproduces the scalar reference exactly:
///   - the divide is one correctly rounded IEEE op in every variant (no
///     multiply-by-reciprocal, nothing for FMA contraction to fuse);
///   - the clamp runs in float before converting and keeps the scalar's
///     NaN -> qmin rule: x86 max/min return their second operand on an
///     unordered compare, NEON's maxnm/minnm return the non-NaN one
///     (the quotient's NaNs are all quiet, which maxnm needs);
///   - after the clamp every value lies in [qmin, qmax], where cvtps2dq
///     (nearest-even under the default MXCSR) and vcvtnq both equal
///     nearbyint, so no variant's out-of-range conversion rule (x86's
///     INT_MIN, NEON's saturation) is ever reached, and every narrowing
///     pack is exact.
/// The i16 form also has a 4-wide body: conv rows are short.
template <typename Code>
inline void quantize(const f32* x, i64 n, const QuantParams& params,
                     Code* codes) {
  static_assert(std::is_same_v<Code, i8> || std::is_same_v<Code, i16>);
  constexpr bool kBytes = std::is_same_v<Code, i8>;
  i64 j = 0;
#if defined(__AVX2__)
  {
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
    if constexpr (kBytes) {
      for (; j + 16 <= n; j += 16) {
        _mm_storeu_si128(reinterpret_cast<__m128i*>(codes + j),
                         _mm_packs_epi16(eight(x + j), eight(x + j + 8)));
      }
    } else {
      for (; j + 8 <= n; j += 8) {
        _mm_storeu_si128(reinterpret_cast<__m128i*>(codes + j),
                         eight(x + j));
      }
    }
  }
#endif
#if defined(__SSE2__) || defined(_M_X64) || defined(_M_AMD64)
  const __m128 scale = _mm_set1_ps(params.scale);
  const __m128 lo = _mm_set1_ps(static_cast<f32>(params.qmin));
  const __m128 hi = _mm_set1_ps(static_cast<f32>(params.qmax));
  auto four = [&](const f32* p) {
    const __m128 q = _mm_div_ps(_mm_loadu_ps(p), scale);
    return _mm_cvtps_epi32(_mm_min_ps(_mm_max_ps(q, lo), hi));
  };
  if constexpr (kBytes) {
    for (; j + 16 <= n; j += 16) {
      const __m128i a = _mm_packs_epi32(four(x + j), four(x + j + 4));
      const __m128i b = _mm_packs_epi32(four(x + j + 8), four(x + j + 12));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(codes + j),
                       _mm_packs_epi16(a, b));
    }
  } else {
    for (; j + 8 <= n; j += 8) {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(codes + j),
                       _mm_packs_epi32(four(x + j), four(x + j + 4)));
    }
    for (; j + 4 <= n; j += 4) {
      const __m128i v = four(x + j);
      _mm_storel_epi64(reinterpret_cast<__m128i*>(codes + j),
                       _mm_packs_epi32(v, v));
    }
  }
#elif defined(__ARM_NEON) && defined(__aarch64__)
  const float32x4_t scale = vdupq_n_f32(params.scale);
  const float32x4_t lo = vdupq_n_f32(static_cast<f32>(params.qmin));
  const float32x4_t hi = vdupq_n_f32(static_cast<f32>(params.qmax));
  auto four = [&](const f32* p) {
    const float32x4_t q = vdivq_f32(vld1q_f32(p), scale);
    return vqmovn_s32(vcvtnq_s32_f32(vminnmq_f32(vmaxnmq_f32(q, lo), hi)));
  };
  if constexpr (kBytes) {
    for (; j + 16 <= n; j += 16) {
      const int16x8_t a = vcombine_s16(four(x + j), four(x + j + 4));
      const int16x8_t b = vcombine_s16(four(x + j + 8), four(x + j + 12));
      vst1q_s8(codes + j, vcombine_s8(vqmovn_s16(a), vqmovn_s16(b)));
    }
  } else {
    for (; j + 4 <= n; j += 4) vst1_s16(codes + j, four(x + j));
  }
#endif
  for (; j < n; ++j) codes[j] = static_cast<Code>(params.quantize(x[j]));
}

}  // namespace
}  // namespace MSH_SIMD_ISA
}  // namespace msh::simd
