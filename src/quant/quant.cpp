#include "quant/quant.h"

#include <algorithm>
#include <cmath>

namespace msh {

QuantParams QuantParams::calibrate(const Tensor& t, i32 bits) {
  MSH_REQUIRE(bits >= 2 && bits <= 8);
  QuantParams p;
  p.qmax = (1 << (bits - 1)) - 1;
  p.qmin = -p.qmax;  // symmetric: reserve -2^(b-1) to keep negation exact
  const f32 amax = t.numel() ? t.abs_max() : 0.0f;
  p.scale = amax > 0.0f ? amax / static_cast<f32>(p.qmax) : 1.0f;
  return p;
}

i32 QuantParams::quantize(f32 v) const {
  // Saturate in float before converting: float->int conversion is only
  // defined in range, so clamping the integer afterwards would let +inf
  // or a huge |v| wrap to INT_MIN and flip sign. std::max keeps its
  // first argument on an unordered compare, so NaN lands on qmin.
  const f32 q = std::min(static_cast<f32>(qmax),
                         std::max(static_cast<f32>(qmin), v / scale));
  // Round half to even, matching typical fixed-point RTL rounding.
  return static_cast<i32>(std::nearbyint(q));
}

QuantizedTensor quantize(const Tensor& t, const QuantParams& params) {
  QuantizedTensor q;
  q.shape = t.shape();
  q.params = params;
  q.data.resize(static_cast<size_t>(t.numel()));
  for (i64 i = 0; i < t.numel(); ++i)
    q.data[static_cast<size_t>(i)] = static_cast<i8>(params.quantize(t[i]));
  return q;
}

QuantizedTensor quantize(const Tensor& t, i32 bits) {
  return quantize(t, QuantParams::calibrate(t, bits));
}

Tensor dequantize(const QuantizedTensor& q) {
  Tensor t(q.shape);
  for (i64 i = 0; i < q.numel(); ++i)
    t[i] = q.params.dequantize(q.at(i));
  return t;
}

Tensor fake_quantize(const Tensor& t, i32 bits) {
  return dequantize(quantize(t, bits));
}

std::vector<i32> quantized_matmul_raw(const QuantizedTensor& x,
                                      const QuantizedTensor& w) {
  MSH_REQUIRE(x.shape.rank() == 2 && w.shape.rank() == 2);
  const i64 b = x.shape[0], k = x.shape[1], c = w.shape[1];
  MSH_REQUIRE(w.shape[0] == k);
  std::vector<i32> y(static_cast<size_t>(b * c), 0);
  for (i64 i = 0; i < b; ++i) {
    for (i64 kk = 0; kk < k; ++kk) {
      const i32 xv = x.at(i * k + kk);
      if (xv == 0) continue;
      for (i64 j = 0; j < c; ++j) {
        y[static_cast<size_t>(i * c + j)] +=
            xv * static_cast<i32>(w.at(kk * c + j));
      }
    }
  }
  return y;
}

Tensor quantized_matmul(const QuantizedTensor& x, const QuantizedTensor& w) {
  const auto raw = quantized_matmul_raw(x, w);
  const i64 b = x.shape[0], c = w.shape[1];
  Tensor y(Shape{b, c});
  const f32 s = x.params.scale * w.params.scale;
  for (i64 i = 0; i < b * c; ++i)
    y[i] = s * static_cast<f32>(raw[static_cast<size_t>(i)]);
  return y;
}

}  // namespace msh
