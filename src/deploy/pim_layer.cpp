#include "deploy/pim_layer.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "kernels/direct_conv.h"
#include "kernels/quant_kernels.h"

namespace msh {

bool satisfies_nm(const Tensor& matrix, NmConfig cfg) {
  if (!cfg.valid() || matrix.shape().rank() != 2) return false;
  const i64 rows = matrix.shape()[0], cols = matrix.shape()[1];
  if (rows % cfg.m != 0) return false;
  for (i64 c = 0; c < cols; ++c) {
    for (i64 g = 0; g < rows / cfg.m; ++g) {
      i32 nz = 0;
      for (i64 i = 0; i < cfg.m; ++i) {
        if (matrix[(g * cfg.m + i) * cols + c] != 0.0f) ++nz;
      }
      if (nz > cfg.n) return false;
    }
  }
  return true;
}

namespace {

/// Pads a [K x out] matrix with zero rows to a multiple of `multiple`.
Tensor pad_rows(const Tensor& matrix, i64 multiple) {
  const i64 k = matrix.shape()[0], out = matrix.shape()[1];
  const i64 padded = (k + multiple - 1) / multiple * multiple;
  if (padded == k) return matrix;
  Tensor result(Shape{padded, out});
  for (i64 i = 0; i < k * out; ++i) result[i] = matrix[i];
  return result;
}

}  // namespace

PimMatmulLayer::PimMatmulLayer(HybridCore& core, const Tensor& weight,
                               NmConfig cfg, PeKind target,
                               f32 activation_scale,
                               const QuantizedNmMatrix* preset)
    : core_(core) {
  MSH_REQUIRE(weight.shape().rank() == 2);
  MSH_REQUIRE(activation_scale > 0.0f);
  out_ = weight.shape()[0];
  k_ = weight.shape()[1];

  // PIM orientation: reduction dimension on the word lines.
  Tensor mapped = weight.transposed();  // [K x out]

  // Choose the packing: the requested N:M if the trained pattern holds,
  // otherwise the dense M:M fallback (every slot stored, index = offset).
  Tensor padded = pad_rows(mapped, cfg.m);
  if (satisfies_nm(padded, cfg)) {
    packed_cfg_ = cfg;
    deployed_sparse_ = true;
  } else {
    packed_cfg_ = NmConfig{4, 4};
    padded = pad_rows(mapped, packed_cfg_.m);
    deployed_sparse_ = false;
  }
  padded_k_ = padded.shape()[0];

  if (preset != nullptr) {
    if (preset->config().n != packed_cfg_.n ||
        preset->config().m != packed_cfg_.m ||
        preset->dense_rows() != padded_k_ || preset->cols() != out_) {
      throw SimulationError(
          "PimMatmulLayer: preset matrix does not fit the layer: preset " +
          std::to_string(preset->config().n) + ":" +
          std::to_string(preset->config().m) + " [" +
          std::to_string(preset->dense_rows()) + " x " +
          std::to_string(preset->cols()) + "], layer expects " +
          std::to_string(packed_cfg_.n) + ":" +
          std::to_string(packed_cfg_.m) + " [" + std::to_string(padded_k_) +
          " x " + std::to_string(out_) + "]");
    }
    deployed_ = *preset;
  } else {
    const NmPackedMatrix packed = NmPackedMatrix::pack(padded, packed_cfg_);
    deployed_ = QuantizedNmMatrix::from_packed(packed);
  }
  weight_scale_ = deployed_.scale();
  stored_slots_ = deployed_.packed_rows() * deployed_.cols();

  act_params_.scale = activation_scale;
  handle_ = target == PeKind::kSram ? core_.deploy_sram(deployed_)
                                    : core_.deploy_mram(deployed_);
}

void PimMatmulLayer::update(const Tensor& weight) {
  MSH_REQUIRE(weight.shape() == Shape({out_, k_}));
  Tensor padded = pad_rows(weight.transposed(), packed_cfg_.m);
  MSH_REQUIRE(satisfies_nm(padded, packed_cfg_));
  const NmPackedMatrix packed = NmPackedMatrix::pack(padded, packed_cfg_);
  deployed_ = QuantizedNmMatrix::from_packed(packed);
  weight_scale_ = deployed_.scale();
  core_.redeploy_sram(handle_, deployed_);
}

void PimMatmulLayer::set_activation_scale(f32 scale) {
  MSH_REQUIRE(scale > 0.0f);
  act_params_.scale = scale;
}

Tensor PimMatmulLayer::matmul(const Tensor& x, const Tensor* bias) {
  MSH_REQUIRE(x.shape().rank() == 2);
  MSH_REQUIRE(x.shape()[1] == k_);
  MSH_REQUIRE(bias == nullptr || bias->empty() ||
              static_cast<i64>(bias->numel()) == out_);
  const i64 batch = x.shape()[0];
  const bool add_bias = bias != nullptr && !bias->empty();

  // The float<->INT8 boundary is shared kernel code (kernels/
  // quant_kernels.h) so both compute backends quantize and dequantize
  // identically — backend bit-exactness holds end to end.
  KernelArena& scratch = core_.io_scratch();
  scratch.reset();
  const std::span<i8> codes = scratch.alloc<i8>(batch * padded_k_);
  quantize_activations(x.data(), batch, k_, padded_k_, act_params_,
                       codes.data());

  const std::span<i32> acc = scratch.alloc<i32>(batch * out_);
  core_.matmul_into(handle_, codes, batch, acc);
  Tensor y(Shape{batch, out_});
  const f32 scale = act_params_.scale * weight_scale_;
  dequantize_outputs(acc.data(), batch, out_, scale,
                     add_bias ? bias->data() : nullptr, y.data());
  return y;
}

PimConv::PimConv(HybridCore& core, Conv2d& conv, NmConfig cfg, PeKind target,
                 f32 activation_scale, const QuantizedNmMatrix* preset)
    : core_(core),
      geom_(conv.geometry()),
      matmul_(core, conv.weight().value, cfg, target, activation_scale,
              preset) {
  if (conv.has_bias()) bias_ = conv.bias().value;
}

ConvPlanes PimConv::input_layout(i64 batch, i64 channels, i64 height,
                                 i64 width) const {
  MSH_REQUIRE(channels == geom_.in_channels);
  return ConvPlanes::make(batch, channels, height, width, geom_.kernel,
                          geom_.stride, geom_.padding);
}

ActivationCodes PimConv::activation_codes(const ConvPlanes& layout) {
  return {.layout = layout,
          .params = matmul_.activation_params(),
          .planes = core_.activation_scratch().alloc<i16>(layout.size())};
}

ActivationCodes PimConv::quantize(const Tensor& x) {
  const Shape& s = x.shape();
  MSH_REQUIRE(s.rank() == 4);
  ActivationCodes codes =
      activation_codes(input_layout(s[0], s[1], s[2], s[3]));
  quantize_conv_planes(x.data(), codes.layout, codes.params,
                       codes.planes.data());
  return codes;
}

ActivationCodes PimConv::quantize_pooled(const Tensor& x, i64 kernel,
                                         i64 stride) {
  const Shape& s = x.shape();
  MSH_REQUIRE(s.rank() == 4);
  MSH_REQUIRE(kernel > 0 && stride > 0 && s[2] >= kernel && s[3] >= kernel);
  ActivationCodes codes = activation_codes(
      input_layout(s[0], s[1], (s[2] - kernel) / stride + 1,
                   (s[3] - kernel) / stride + 1));
  avg_pool_planes(x.data(), s[2], s[3], kernel, stride, codes.layout,
                  codes.params, codes.planes.data());
  return codes;
}

std::pair<ConvPlanes, std::span<const i16>> PimConv::input_planes(
    const ConvInput& in) {
  const ActivationCodes* codes = in.codes;
  const Tensor* x = in.values;
  MSH_REQUIRE(x != nullptr || codes != nullptr);
  if (x != nullptr) MSH_REQUIRE(x->shape().rank() == 4);
  const ConvPlanes own =
      x != nullptr ? input_layout(x->shape()[0], x->shape()[1],
                                  x->shape()[2], x->shape()[3])
                   : input_layout(codes->layout.batch, codes->layout.channels,
                                  codes->layout.height, codes->layout.width);
  // Codes made for this conv, or for a sibling reading the same values,
  // serve when they were quantized the way this conv quantizes.
  if (codes != nullptr && codes->params == matmul_.activation_params()) {
    if (codes->layout == own) return {own, codes->planes};
    if (const auto view = ConvPlanes::sibling_view(codes->layout, own)) {
      return {*view, codes->planes};
    }
  }
  MSH_REQUIRE(x != nullptr);
  // Quantize once, straight into the zero-padded code planes both
  // backends read: an input value inside k*k receptive fields still
  // becomes its code a single time.
  const std::span<i16> planes = core_.io_scratch().alloc<i16>(own.size());
  quantize_conv_planes(x->data(), own, matmul_.activation_params(),
                       planes.data());
  return {own, planes};
}

ActivationCodes PimConv::dispatch(const ConvInput& in,
                                  const ConvEpilogue& epilogue, Tensor* y,
                                  PimConv* reader) {
  KernelArena& scratch = core_.io_scratch();
  scratch.reset();
  const auto [layout, planes] = input_planes(in);
  const std::span<i32> acc =
      scratch.alloc<i32>(geom_.out_channels * layout.positions);
  core_.conv_into(matmul_.handle(), planes, layout, acc);
  ActivationCodes codes;
  if (reader != nullptr) {
    codes = reader->activation_codes(reader->input_layout(
        layout.batch, geom_.out_channels, layout.out_h, layout.out_w));
  }
  if (y != nullptr) {
    *y = Tensor::uninitialized(
        Shape{layout.batch, geom_.out_channels, layout.out_h, layout.out_w});
  }
  epilogue.dequantize_apply(acc.data(), layout, output_scale(), bias(), y,
                            reader != nullptr ? &codes : nullptr, scratch);
  return codes;
}

Tensor PimConv::forward(const ConvInput& in, const ConvEpilogue& epilogue) {
  Tensor y;
  dispatch(in, epilogue, &y, nullptr);
  return y;
}

ActivationCodes PimConv::forward_codes(const ConvInput& in,
                                       const ConvEpilogue& epilogue,
                                       PimConv& reader, Tensor* values) {
  MSH_REQUIRE(&reader.core_ == &core_ && reader.geom_.stride == 1);
  return dispatch(in, epilogue, values, &reader);
}

namespace {

/// One channel's eval-mode BN constants, as BatchNorm2d::forward computes
/// them.
BnConstants bn_channel(const BatchNorm2d& bn, i64 ch) {
  return {bn.gamma()[ch], bn.beta()[ch], bn.running_mean()[ch],
          1.0f / std::sqrt(bn.running_var()[ch] + bn.eps())};
}

/// v + r as one instruction whose first source is v: of two NaNs, x86
/// keeps the first source's, and a compiler may commute a plain `+`. The
/// conv_epilogue kernel pins the same order (kernels/raw_kernels.cpp).
f32 add_first_source(f32 v, f32 r) {
#if defined(__AVX__)
  asm("vaddss %2, %1, %0" : "=x"(v) : "x"(v), "x"(r));
#elif defined(__SSE2__)
  asm("addss %1, %0" : "+x"(v) : "x"(r));
#else
  v += r;
#endif
  return v;
}

}  // namespace

EpilogueSteps ConvEpilogue::steps(i64 channels, const f32* bias,
                                  KernelArena& scratch) const {
  MSH_REQUIRE(bn == nullptr || bn->channels() == channels);
  EpilogueSteps s{.bias = bias,
                  .residual = residual != nullptr ? residual->data() : nullptr,
                  .relu = relu};
  if (bn != nullptr) {
    const std::span<BnConstants> constants =
        scratch.alloc<BnConstants>(channels);
    for (i64 c = 0; c < channels; ++c) {
      constants[static_cast<size_t>(c)] = bn_channel(*bn, c);
    }
    s.bn = constants.data();
  }
  return s;
}

void ConvEpilogue::dequantize_apply(const i32* acc, const ConvPlanes& layout,
                                    f32 scale, const f32* bias, Tensor* y,
                                    const ActivationCodes* next,
                                    KernelArena& scratch) const {
  MSH_REQUIRE(y != nullptr || next != nullptr);
  EpilogueOutputs out;
  i64 channels = 0;
  if (y != nullptr) {
    const Shape& s = y->shape();
    MSH_REQUIRE(s.rank() == 4 && s[0] == layout.batch &&
                s[2] == layout.out_h && s[3] == layout.out_w);
    channels = s[1];
    out.y = y->data();
  }
  if (next != nullptr) {
    MSH_REQUIRE(static_cast<i64>(next->planes.size()) == next->layout.size());
    MSH_REQUIRE(y == nullptr || next->layout.channels == channels);
    channels = next->layout.channels;
    out.planes = next->planes.data();
    out.next = &next->layout;
    out.next_params = next->params;
  }
  if (residual != nullptr) {
    const Shape& r = residual->shape();
    MSH_REQUIRE(r.rank() == 4 && r[0] == layout.batch && r[1] == channels &&
                r[2] == layout.out_h && r[3] == layout.out_w);
  }
  conv_epilogue(acc, layout, channels, scale, steps(channels, bias, scratch),
                out);
}

void ConvEpilogue::apply_plane(f32* v, i64 plane, i64 channels,
                               i64 spatial) const {
  if (bn != nullptr) {
    const BnConstants c = bn_channel(*bn, plane % channels);
    for (i64 s = 0; s < spatial; ++s) {
      v[s] = c.g * (v[s] - c.mean) * c.inv_std + c.beta;
    }
  }
  if (residual != nullptr) {
    const f32* r = residual->data() + plane * spatial;
    for (i64 s = 0; s < spatial; ++s) v[s] = add_first_source(v[s], r[s]);
  }
  switch (relu) {
    case Relu::kNone:
      break;
    case Relu::kPositive:
      for (i64 s = 0; s < spatial; ++s) v[s] = v[s] > 0.0f ? v[s] : 0.0f;
      break;
    case Relu::kMax:
      for (i64 s = 0; s < spatial; ++s) v[s] = std::max(v[s], 0.0f);
      break;
  }
}

void ConvEpilogue::apply(Tensor& y) const {
  MSH_REQUIRE(y.shape().rank() == 4);
  MSH_REQUIRE(bn == nullptr || bn->channels() == y.shape()[1]);
  MSH_REQUIRE(residual == nullptr || residual->shape() == y.shape());
  const i64 channels = y.shape()[1], spatial = y.shape()[2] * y.shape()[3];
  const i64 planes = y.shape()[0] * channels;
  for (i64 p = 0; p < planes; ++p) {
    apply_plane(y.data() + p * spatial, p, channels, spatial);
  }
}

PimLinear::PimLinear(HybridCore& core, Linear& linear, NmConfig cfg,
                     PeKind target, f32 activation_scale,
                     const QuantizedNmMatrix* preset)
    : matmul_(core, linear.weight().value, cfg, target, activation_scale,
              preset) {
  bias_ = linear.bias().value;
}

Tensor PimLinear::forward(const Tensor& x) {
  // Bias rides inside the dequantization loop (one write per output
  // element, every batch row handled in its own lane) instead of a
  // second read-modify-write sweep after the batch loop.
  return matmul_.matmul(x, &bias_);
}

}  // namespace msh
