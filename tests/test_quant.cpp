#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "quant/quant.h"
#include "tensor/ops.h"

namespace msh {
namespace {

TEST(QuantParams, CalibrateSymmetric) {
  Tensor t = Tensor::from_data(Shape{3}, {-2.0f, 0.5f, 1.0f});
  QuantParams p = QuantParams::calibrate(t, 8);
  EXPECT_EQ(p.qmax, 127);
  EXPECT_EQ(p.qmin, -127);
  EXPECT_FLOAT_EQ(p.scale, 2.0f / 127.0f);
}

TEST(QuantParams, ZeroTensorScaleIsOne) {
  Tensor t(Shape{4});
  QuantParams p = QuantParams::calibrate(t, 8);
  EXPECT_FLOAT_EQ(p.scale, 1.0f);
}

TEST(QuantParams, LowerBitWidths) {
  Tensor t = Tensor::from_data(Shape{1}, {1.0f});
  QuantParams p4 = QuantParams::calibrate(t, 4);
  EXPECT_EQ(p4.qmax, 7);
  EXPECT_EQ(p4.qmin, -7);
}

TEST(QuantParams, SaturatesAtRange) {
  QuantParams p{.scale = 1.0f};
  EXPECT_EQ(p.quantize(500.0f), 127);
  EXPECT_EQ(p.quantize(-500.0f), -127);
  // Saturation happens in float, before the conversion: values past the
  // i32 range and infinities keep their sign, NaN lands on qmin.
  const f32 inf = std::numeric_limits<f32>::infinity();
  EXPECT_EQ(p.quantize(inf), 127);
  EXPECT_EQ(p.quantize(-inf), -127);
  EXPECT_EQ(p.quantize(1e30f), 127);
  EXPECT_EQ(p.quantize(-1e30f), -127);
  EXPECT_EQ(p.quantize(std::numeric_limits<f32>::quiet_NaN()), -127);
  const QuantParams fine{.scale = 0.05f};
  EXPECT_EQ(fine.quantize(2e8f), 127);  // 4e9 after scaling: > INT32_MAX
  EXPECT_EQ(fine.quantize(inf), 127);
  // Ties round half to even.
  EXPECT_EQ(p.quantize(0.5f), 0);
  EXPECT_EQ(p.quantize(1.5f), 2);
  EXPECT_EQ(p.quantize(2.5f), 2);
  EXPECT_EQ(p.quantize(-0.5f), 0);
}

TEST(Quantize, RoundTripErrorBounded) {
  Rng rng(1);
  Tensor t = Tensor::randn(Shape{256}, rng);
  QuantizedTensor q = quantize(t, 8);
  Tensor back = dequantize(q);
  // PTQ error bounded by half an LSB.
  EXPECT_LE(max_abs_diff(t, back), q.params.scale * 0.5f + 1e-7f);
}

TEST(Quantize, NegationSymmetric) {
  // Symmetric quantization must treat +v and -v identically.
  Tensor t = Tensor::from_data(Shape{2}, {0.73f, -0.73f});
  QuantizedTensor q = quantize(t, 8);
  EXPECT_EQ(q.at(0), -q.at(1));
}

TEST(FakeQuantize, Idempotent) {
  Rng rng(2);
  Tensor t = Tensor::randn(Shape{64}, rng);
  Tensor once = fake_quantize(t, 8);
  Tensor twice = fake_quantize(once, 8);
  EXPECT_LE(max_abs_diff(once, twice), 1e-6f);
}

TEST(QuantizedMatmul, RawAccumulatorExact) {
  // Hand-checked integer matmul.
  QuantizedTensor x{Shape{1, 3}, {2, -3, 4}, {.scale = 1.0f}};
  QuantizedTensor w{Shape{3, 2}, {1, 2, 3, 4, 5, 6}, {.scale = 1.0f}};
  const auto raw = quantized_matmul_raw(x, w);
  // [2*1 + -3*3 + 4*5, 2*2 + -3*4 + 4*6] = [13, 16]
  EXPECT_EQ(raw[0], 13);
  EXPECT_EQ(raw[1], 16);
}

TEST(QuantizedMatmul, ApproximatesFloatMatmul) {
  Rng rng(3);
  Tensor x = Tensor::randn(Shape{4, 16}, rng);
  Tensor w = Tensor::randn(Shape{16, 8}, rng);
  Tensor ref = matmul(x, w);

  QuantizedTensor xq = quantize(x, 8);
  QuantizedTensor wq = quantize(w, 8);
  Tensor approx = quantized_matmul(xq, wq);

  // INT8 x INT8 over K=16: relative error stays small.
  const f32 tol = 0.05f * ref.abs_max();
  EXPECT_LE(max_abs_diff(approx, ref), tol);
}

TEST(QuantizedMatmul, ScalesCompose) {
  QuantizedTensor x{Shape{1, 1}, {10}, {.scale = 0.5f}};
  QuantizedTensor w{Shape{1, 1}, {4}, {.scale = 0.25f}};
  Tensor y = quantized_matmul(x, w);
  EXPECT_FLOAT_EQ(y[0], 10 * 4 * 0.5f * 0.25f);
}

TEST(QuantizedMatmul, ShapeMismatchThrows) {
  QuantizedTensor x{Shape{1, 2}, {1, 2}, {}};
  QuantizedTensor w{Shape{3, 1}, {1, 2, 3}, {}};
  EXPECT_THROW(quantized_matmul_raw(x, w), ContractError);
}

TEST(Quantize, Int8AccuracyPreservedOnGaussianData) {
  // The paper's Table 1 premise: INT8 PTQ keeps tensors close to FP32.
  Rng rng(4);
  Tensor t = Tensor::randn(Shape{4096}, rng);
  Tensor q = fake_quantize(t, 8);
  const f64 rel_err =
      std::sqrt((sub(t, q).sq_norm()) / std::max(1e-12, t.sq_norm()));
  EXPECT_LT(rel_err, 0.01);
}

}  // namespace
}  // namespace msh
