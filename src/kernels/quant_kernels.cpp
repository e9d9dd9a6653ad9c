#include "kernels/quant_kernels.h"

#include <cstring>

#include "kernels/simd.h"

namespace msh {

void quantize_activations(const f32* x, i64 batch, i64 k, i64 padded_k,
                          const QuantParams& params, i8* codes,
                          std::nullptr_t) {
  MSH_REQUIRE(padded_k >= k);
  for (i64 b = 0; b < batch; ++b) {
    i8* row = codes + b * padded_k;
    simd::quantize(x + b * k, k, params, row);
    if (padded_k > k) {
      std::memset(row + k, 0, static_cast<size_t>(padded_k - k));
    }
  }
}

void dequantize_outputs(const i32* raw, i64 batch, i64 out, f32 scale,
                        const f32* bias, f32* y, std::nullptr_t) {
  for (i64 b = 0; b < batch; ++b) {
    for (i64 j = 0; j < out; ++j) {
      const i64 i = b * out + j;
      const f32 v = scale * static_cast<f32>(raw[i]);
      y[i] = bias != nullptr ? v + bias[j] : v;
    }
  }
}

}  // namespace msh
