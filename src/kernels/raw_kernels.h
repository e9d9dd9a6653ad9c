// The raw data path's kernels, one copy per ISA (DESIGN §5i).
//
// raw_kernels.cpp holds the bodies of quantize_activations,
// quantize_conv_planes, direct_conv, conv_epilogue, avg_pool_planes and
// raw_csc_matmul, with the simd.h primitives they inline. The build
// compiles it once at the baseline ISA and, on x86-64, once more with
// -mavx2 (the baseline copy with -mno-avx2, so the two differ even when
// the build flags enable AVX2). Each copy defines its RawKernels table in the namespace
// simd.h names for the ISA it was compiled for, so the copies never share
// a mangled name. raw_kernels() picks one table, once, from the CPU; the
// public entry points (kernels/quant_kernels.h, direct_conv.h,
// flat_csc.h) call through it. Every copy computes the same bytes.
//
// ODR guard: a -mavx2 object may define no weak, vague-linkage or
// unique symbol. Such a symbol would be a header inline function (or
// template instance) compiled with VEX encoding, which the linker may
// pick for every caller — a baseline caller on a CPU without AVX2
// included. raw_kernels.cpp keeps its helpers at internal linkage, and
// the ctest kernels_avx2_objects_define_no_vague_linkage runs nm over
// the -mavx2 objects to hold it.
#pragma once

#include <span>

#include "kernels/arena.h"
#include "kernels/direct_conv.h"
#include "kernels/flat_csc.h"
#include "quant/quant.h"

namespace msh {

/// One ISA's copy of the raw kernels. The first six have the contracts
/// of the public entry points of the same names; the rest are the simd.h
/// bodies this copy inlines, exported so tests can run every body the
/// CPU supports.
struct RawKernels {
  const char* isa;  ///< simd.h's namespace name for this copy
  void (*quantize_activations)(const f32* x, i64 batch, i64 k, i64 padded_k,
                               const QuantParams& params, i8* codes);
  void (*quantize_conv_planes)(const f32* x, const ConvPlanes& layout,
                               const QuantParams& params, i16* planes);
  void (*direct_conv)(const FlatCsc& w, const i16* planes,
                      const ConvPlanes& layout, i32* out, KernelArena& arena);
  void (*conv_epilogue)(const i32* acc, const ConvPlanes& layout,
                        i64 channels, f32 scale, const EpilogueSteps& steps,
                        const EpilogueOutputs& out);
  void (*avg_pool_planes)(const f32* x, i64 height, i64 width, i64 kernel,
                          i64 stride, const ConvPlanes& next,
                          const QuantParams& params, i16* planes);
  void (*raw_csc_matmul)(const FlatCsc& w, std::span<const i8> acts,
                         i64 batch, std::span<i32> out, KernelArena& arena);
  void (*pair_mac)(i32* out, i64 n, const i16* x, const i32* row,
                   const i64* off, const i32* w, i64 pairs);
  void (*quantize_i8)(const f32* x, i64 n, const QuantParams& params,
                      i8* codes);
  void (*quantize_i16)(const f32* x, i64 n, const QuantParams& params,
                       i16* codes);
  void (*widen_transpose)(const i8* x, i64 rows, i64 cols, i16* xt);
};

/// Each copy's table. A build defines the baseline copy's (sse2 on
/// x86-64, else neon or scalar) and, on x86-64, avx2's.
namespace isa {
namespace scalar {
extern const RawKernels kRawKernels;
}
namespace sse2 {
extern const RawKernels kRawKernels;
}
namespace avx2 {
extern const RawKernels kRawKernels;
}
namespace neon {
extern const RawKernels kRawKernels;
}
}  // namespace isa

/// The copy the public entry points call: on x86-64 avx2's when the CPU
/// has AVX2 (__builtin_cpu_supports, asked once), else the baseline's.
const RawKernels& raw_kernels();

}  // namespace msh
