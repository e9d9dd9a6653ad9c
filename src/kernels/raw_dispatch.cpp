// The public entry points of the raw data path's kernels, and the one
// place that picks which ISA copy they run (kernels/raw_kernels.h).
#include <cstddef>

#include "kernels/direct_conv.h"
#include "kernels/flat_csc.h"
#include "kernels/quant_kernels.h"
#include "kernels/raw_kernels.h"
#include "kernels/simd.h"

namespace msh {

const RawKernels& raw_kernels() {
#if defined(MSH_RAW_KERNELS_AVX2)
  // The baseline copy is built with -mno-avx2, so it is sse2's even when
  // the build flags enable AVX2.
  static const RawKernels& chosen = __builtin_cpu_supports("avx2")
                                        ? isa::avx2::kRawKernels
                                        : isa::sse2::kRawKernels;
  return chosen;
#else
  return isa::MSH_SIMD_ISA::kRawKernels;
#endif
}

const char* const simd::kIsa = raw_kernels().isa;

void quantize_activations(const f32* x, i64 batch, i64 k, i64 padded_k,
                          const QuantParams& params, i8* codes,
                          std::nullptr_t) {
  raw_kernels().quantize_activations(x, batch, k, padded_k, params, codes);
}

void quantize_conv_planes(const f32* x, const ConvPlanes& layout,
                          const QuantParams& params, i16* planes) {
  raw_kernels().quantize_conv_planes(x, layout, params, planes);
}

void direct_conv(const FlatCsc& w, const i16* planes,
                 const ConvPlanes& layout, i32* out, KernelArena& arena) {
  raw_kernels().direct_conv(w, planes, layout, out, arena);
}

void conv_epilogue(const i32* acc, const ConvPlanes& layout, i64 channels,
                   f32 scale, const EpilogueSteps& steps,
                   const EpilogueOutputs& out) {
  raw_kernels().conv_epilogue(acc, layout, channels, scale, steps, out);
}

void avg_pool_planes(const f32* x, i64 height, i64 width, i64 kernel,
                     i64 stride, const ConvPlanes& next,
                     const QuantParams& params, i16* planes) {
  raw_kernels().avg_pool_planes(x, height, width, kernel, stride, next,
                                params, planes);
}

void raw_csc_matmul(const FlatCsc& w, std::span<const i8> acts, i64 batch,
                    std::span<i32> out, KernelArena& arena, std::nullptr_t) {
  raw_kernels().raw_csc_matmul(w, acts, batch, out, arena);
}

}  // namespace msh
