// Activation quantize / output dequantize, shared by BOTH backends: the
// float<->INT8 boundary must be a single implementation so backend
// choice can never move a value across a rounding edge.
//
// Quantize is vectorized (simd::quantize, AVX2/SSE2/NEON; the ISA copy
// raw_kernels() picked, kernels/raw_kernels.h) and checked bit-exact
// against the scalar QuantParams::quantize, its fallback and reference:
// it is one divide, a clamp and a round-half-even convert, with nothing
// an FMA could contract. Its saturation contract is total — ±inf and
// out-of-range values clamp to qmax/qmin, NaN to qmin — identically on
// every ISA. Dequantize stays scalar: scale * acc + bias
// is exactly the multiply-add a compiler may fuse, so it is written as
// two operations and built with FP contraction off.
#pragma once

#include <cstddef>

#include "common/types.h"
#include "quant/quant.h"

namespace msh {

/// Quantizes a [batch x k] float activation block into the padded INT8
/// layout [batch x padded_k] the PE arrays consume (pad tail zeroed).
/// The trailing parameter only keeps older `nullptr` call sites
/// compiling; it carries nothing.
void quantize_activations(const f32* x, i64 batch, i64 k, i64 padded_k,
                          const QuantParams& params, i8* codes,
                          std::nullptr_t = nullptr);

/// Dequantizes raw INT32 accumulators [batch x out] into floats with an
/// optional fused bias (`bias` null skips it). Same trailing parameter.
void dequantize_outputs(const i32* raw, i64 batch, i64 out, f32 scale,
                        const f32* bias, f32* y, std::nullptr_t = nullptr);

}  // namespace msh
