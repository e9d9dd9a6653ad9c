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

Tensor PimConv::forward(const Tensor& x, const ConvEpilogue& epilogue) {
  MSH_REQUIRE(x.shape().rank() == 4);
  MSH_REQUIRE(x.shape()[1] == geom_.in_channels);
  const ConvPlanes layout = ConvPlanes::make(
      x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3], geom_.kernel,
      geom_.stride, geom_.padding);
  const i64 out_ch = geom_.out_channels;
  KernelArena& scratch = core_.io_scratch();
  scratch.reset();

  // Quantize once, straight into the zero-padded code planes both
  // backends read: an input value inside k*k receptive fields still
  // becomes its code a single time.
  const std::span<i16> planes = scratch.alloc<i16>(layout.size());
  quantize_conv_planes(x.data(), layout, matmul_.activation_params(),
                       planes.data());
  const std::span<i32> acc = scratch.alloc<i32>(out_ch * layout.positions);
  core_.conv_into(matmul_.handle(), planes, layout, acc);

  Tensor y(Shape{layout.batch, out_ch, layout.out_h, layout.out_w});
  epilogue.dequantize_apply(acc.data(), layout,
                            matmul_.activation_scale() * matmul_.weight_scale(),
                            bias_.empty() ? nullptr : bias_.data(), y,
                            scratch);
  return y;
}

namespace {

/// One channel's eval-mode BN constants, as BatchNorm2d::forward computes
/// them.
struct BnChannel {
  f32 g, beta, mean, inv_std;
};

BnChannel bn_channel(const BatchNorm2d& bn, i64 ch) {
  return {bn.gamma()[ch], bn.beta()[ch], bn.running_mean()[ch],
          1.0f / std::sqrt(bn.running_var()[ch] + bn.eps())};
}

/// ConvEpilogue::dequantize_apply's operands.
struct FusedPlanes {
  const i32* acc;
  const ConvPlanes* layout;
  i64 channels;
  f32 scale;
  const f32* bias;
  const BnChannel* bn;  ///< [channels], when BN runs
  const f32* residual;
  f32* y;
};

template <bool kBn, bool kResidual, ConvEpilogue::Relu kRelu>
void dequantize_apply_planes(const FusedPlanes& f) {
  const ConvPlanes& g = *f.layout;
  const i64 wo = g.out_w, spatial = g.out_h * wo;
  for (i64 p = 0; p < g.batch * f.channels; ++p) {
    const i64 img = p / f.channels, oc = p % f.channels;
    const f32 b = f.bias != nullptr ? f.bias[oc] : 0.0f;
    BnChannel bn{};
    if constexpr (kBn) bn = f.bn[oc];
    for (i64 oy = 0; oy < g.out_h; ++oy) {
      const i32* src = f.acc + oc * g.positions + g.position(img, oy, 0);
      const i64 at = p * spatial + oy * wo;
      f32* dst = f.y + at;
      for (i64 ox = 0; ox < wo; ++ox) {
        f32 v = f.scale * static_cast<f32>(src[ox]) + b;
        if constexpr (kBn) v = bn.g * (v - bn.mean) * bn.inv_std + bn.beta;
        if constexpr (kResidual) v += f.residual[at + ox];
        if constexpr (kRelu == ConvEpilogue::Relu::kPositive) {
          v = v > 0.0f ? v : 0.0f;
        } else if constexpr (kRelu == ConvEpilogue::Relu::kMax) {
          v = std::max(v, 0.0f);
        }
        dst[ox] = v;
      }
    }
  }
}

template <bool kBn, bool kResidual>
void dequantize_apply_planes(const FusedPlanes& f, ConvEpilogue::Relu relu) {
  using Relu = ConvEpilogue::Relu;
  switch (relu) {
    case Relu::kNone:
      return dequantize_apply_planes<kBn, kResidual, Relu::kNone>(f);
    case Relu::kPositive:
      return dequantize_apply_planes<kBn, kResidual, Relu::kPositive>(f);
    case Relu::kMax:
      return dequantize_apply_planes<kBn, kResidual, Relu::kMax>(f);
  }
}

}  // namespace

void ConvEpilogue::dequantize_apply(const i32* acc, const ConvPlanes& layout,
                                    f32 scale, const f32* bias, Tensor& y,
                                    KernelArena& scratch) const {
  MSH_REQUIRE(y.shape().rank() == 4);
  const i64 channels = y.shape()[1];
  MSH_REQUIRE(y.shape()[0] == layout.batch && y.shape()[2] == layout.out_h &&
              y.shape()[3] == layout.out_w);
  MSH_REQUIRE(bn == nullptr || bn->channels() == channels);
  MSH_REQUIRE(residual == nullptr || residual->shape() == y.shape());
  std::span<BnChannel> constants;
  if (bn != nullptr) {
    constants = scratch.alloc<BnChannel>(channels);
    for (i64 c = 0; c < channels; ++c) {
      constants[static_cast<size_t>(c)] = bn_channel(*bn, c);
    }
  }
  const FusedPlanes f{.acc = acc,
                      .layout = &layout,
                      .channels = channels,
                      .scale = scale,
                      .bias = bias,
                      .bn = constants.data(),
                      .residual = residual != nullptr ? residual->data()
                                                      : nullptr,
                      .y = y.data()};
  if (bn != nullptr && residual != nullptr) {
    dequantize_apply_planes<true, true>(f, relu);
  } else if (bn != nullptr) {
    dequantize_apply_planes<true, false>(f, relu);
  } else if (residual != nullptr) {
    dequantize_apply_planes<false, true>(f, relu);
  } else {
    dequantize_apply_planes<false, false>(f, relu);
  }
}

void ConvEpilogue::apply_plane(f32* v, i64 plane, i64 channels,
                               i64 spatial) const {
  if (bn != nullptr) {
    const BnChannel c = bn_channel(*bn, plane % channels);
    for (i64 s = 0; s < spatial; ++s) {
      v[s] = c.g * (v[s] - c.mean) * c.inv_std + c.beta;
    }
  }
  if (residual != nullptr) {
    const f32* r = residual->data() + plane * spatial;
    for (i64 s = 0; s < spatial; ++s) v[s] += r[s];
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
