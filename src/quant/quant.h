// INT8 post-training quantization (paper §5.1) with the exact integer
// semantics the bit-serial PIM hardware implements: symmetric per-tensor
// scaling, round-to-nearest-even, i32 accumulation.
#pragma once

#include <vector>

#include "tensor/tensor.h"

namespace msh {

/// Symmetric quantization parameters: real = scale * q, q in [qmin, qmax].
struct QuantParams {
  f32 scale = 1.0f;
  i32 qmin = -127;
  i32 qmax = 127;

  /// Calibrates scale from the tensor's absolute maximum.
  static QuantParams calibrate(const Tensor& t, i32 bits = 8);

  /// round_half_even(v / scale) saturated to [qmin, qmax]. Total: ±inf
  /// and out-of-range values saturate to the matching end, NaN maps to
  /// qmin. The reference every SIMD quantizer is checked against.
  i32 quantize(f32 v) const;
  f32 dequantize(i32 q) const { return scale * static_cast<f32>(q); }

  bool operator==(const QuantParams&) const = default;
};

/// An integer tensor plus its dequantization scale.
struct QuantizedTensor {
  Shape shape;
  std::vector<i8> data;
  QuantParams params;

  i64 numel() const { return static_cast<i64>(data.size()); }
  i8 at(i64 flat) const { return data[static_cast<size_t>(flat)]; }
};

/// Quantizes to INT8.
QuantizedTensor quantize(const Tensor& t, const QuantParams& params);
QuantizedTensor quantize(const Tensor& t, i32 bits = 8);

/// Dequantizes back to float.
Tensor dequantize(const QuantizedTensor& q);

/// Quantize-dequantize ("fake quant"): the float tensor the INT8 model
/// effectively computes with. Used to evaluate INT8 accuracy in the
/// algorithm stack.
Tensor fake_quantize(const Tensor& t, i32 bits = 8);

/// Integer matmul with i32 accumulation:
/// y_q[b,c] = sum_k x_q[b,k] * w_q[k,c];  y = sx*sw*y_q.
/// Returns the dequantized float result. This is the golden model the
/// bit-serial PE simulators are checked against bit-exactly (on y_q).
Tensor quantized_matmul(const QuantizedTensor& x, const QuantizedTensor& w);

/// Raw integer accumulator output of the same matmul, before scaling —
/// the value the PE adder trees/accumulators must reproduce exactly.
std::vector<i32> quantized_matmul_raw(const QuantizedTensor& x,
                                      const QuantizedTensor& w);

}  // namespace msh
