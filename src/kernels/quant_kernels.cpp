#include "kernels/quant_kernels.h"

namespace msh {

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
