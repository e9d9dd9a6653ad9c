// Single-layer deployment onto the hybrid core: wraps a trained conv or
// linear layer as a quantized, N:M-packed matrix resident in SRAM or MRAM
// sparse PEs, and executes it through the functional PE simulators with
// INT8 activations (symmetric, calibration-scaled).
#pragma once

#include <utility>

#include "arch/accelerator.h"
#include "mapping/model_mapper.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/linear.h"

namespace msh {

/// True if the matrix (groups of M down each column) satisfies <= N
/// non-zeros per aligned group — i.e. it can pack under `cfg` directly.
bool satisfies_nm(const Tensor& matrix, NmConfig cfg);

/// A weight matrix deployed on the core. Handles the PIM orientation
/// ([K x out], reduction on the word lines), zero-padding K to the group
/// size, dense fallback packing (M:M) for layers without an N:M pattern,
/// INT8 activation quantization and INT32->FP32 dequantization.
class PimMatmulLayer {
 public:
  /// `weight` is the layer's [out x K] matrix; `activation_scale` the
  /// calibrated symmetric scale of this layer's inputs. When `preset` is
  /// given, its already-quantized codes are programmed instead of
  /// re-quantizing `weight` — the model-swap / boot-from-flash path. The
  /// packing decision (sparse vs dense fallback) still comes from
  /// `weight`; a preset whose config or shape disagrees with that
  /// decision throws SimulationError.
  PimMatmulLayer(HybridCore& core, const Tensor& weight, NmConfig cfg,
                 PeKind target, f32 activation_scale,
                 const QuantizedNmMatrix* preset = nullptr);

  /// y[B x out] = dequant( PE( quant(x[B x K]) ) ) [+ bias].
  ///
  /// `bias` (length out, optional) is fused into the dequantization loop
  /// so every output element is written exactly once — numerically
  /// identical to dequantizing first and adding bias after (the same two
  /// FP32 roundings in the same order), without a second
  /// read-modify-write pass over the rows.
  Tensor matmul(const Tensor& x, const Tensor* bias = nullptr);

  /// Rewrites the deployment with updated weights (same shape; the N:M
  /// pattern must still hold if the layer deployed sparse). SRAM
  /// deployments only — the continual-learning write path.
  void update(const Tensor& weight);

  /// Replaces the activation scale (e.g. dynamic per-batch calibration
  /// for error tensors during backprop).
  void set_activation_scale(f32 scale);

  f32 activation_scale() const { return act_params_.scale; }
  const QuantParams& activation_params() const { return act_params_; }
  f32 weight_scale() const { return weight_scale_; }
  NmConfig packed_config() const { return packed_cfg_; }
  bool deployed_sparse() const { return deployed_sparse_; }
  i64 stored_slots() const { return stored_slots_; }
  i64 handle() const { return handle_; }
  /// Reduction length as deployed: K zero-padded to the group size.
  i64 padded_k() const { return padded_k_; }

  /// The as-programmed quantized matrix (golden copy, serialization /
  /// verify source). Physical PE cells may have drifted since (faults);
  /// this copy has not.
  const QuantizedNmMatrix& deployed_matrix() const { return deployed_; }

 private:
  HybridCore& core_;
  i64 handle_ = -1;
  i64 k_ = 0;         ///< logical reduction length
  i64 padded_k_ = 0;  ///< padded to a multiple of the group size
  i64 out_ = 0;
  NmConfig packed_cfg_;
  bool deployed_sparse_ = false;
  QuantParams act_params_;
  f32 weight_scale_ = 1.0f;
  i64 stored_slots_ = 0;
  QuantizedNmMatrix deployed_;
};

/// An activation as INT8 codes, in the zero-padded code planes of the
/// conv it was quantized for (`layout`, kernels/direct_conv.h) with that
/// conv's input quantization `params`. Held in the core's activation
/// scratch, the planes outlive a dispatch, so every conv that reads the
/// activation can take them instead of quantizing it again (ConvInput).
struct ActivationCodes {
  ConvPlanes layout;
  QuantParams params;
  std::span<i16> planes;
};

/// The digital periphery a conv site applies to its own output, in
/// inference mode: per (image, channel) plane, eval-mode BatchNorm, then
/// the residual plane, then ReLU — each step optional. Every step is the
/// same FP32 operations, in the same order, as the unfused layers it
/// replaces, so the output is bit-identical to running them one by one:
///   BN       g * (v - mean) * inv_std + beta, inv_std = 1/sqrt(var + eps),
///            exactly BatchNorm2d::forward(.., false); read live from the
///            layer on every call;
///   residual v + r, as `y += r`;
///   ReLU     kPositive: v > 0 ? v : 0 (nn::Relu; -0.0 and NaN become +0)
///            kMax:      std::max(v, 0.0f) (keeps -0.0 and NaN).
/// No step may contract into an FMA; msh_nn, msh_kernels and msh_deploy
/// build with -ffp-contract=off.
struct ConvEpilogue {
  using Relu = EpilogueRelu;

  const BatchNorm2d* bn = nullptr;
  /// Shaped like the conv output; added after BN.
  const Tensor* residual = nullptr;
  Relu relu = Relu::kNone;

  /// Finishes plane `plane` (= image * channels + channel) of a
  /// [N, channels, H, W] output in place; `v` points at its `spatial`
  /// values.
  void apply_plane(f32* v, i64 plane, i64 channels, i64 spatial) const;
  /// Finishes every plane of `y` in place — the software conv's pass.
  void apply(Tensor& y) const;

  /// The kernel form of these steps for a conv with `channels` outputs
  /// and `bias` (null: 0.0f): BN's per-channel constants are computed
  /// once, into `scratch`.
  EpilogueSteps steps(i64 channels, const f32* bias,
                      KernelArena& scratch) const;

  /// The hardware conv's pass (kernels/direct_conv.h, conv_epilogue)
  /// from accumulators in the direct conv layout, one element at a time:
  /// scale * acc + bias[c] (0.0f when `bias` is null), then BN, residual
  /// and ReLU. The FP32 operations and their order are those of
  /// dequantizing every plane and then calling apply_plane on it, so the
  /// bytes are too. Each finished value goes to y [N, C, Ho, Wo]
  /// (layout's batch and output size) when `y` is given, and as
  /// next->params.quantize of it into next's planes when `next` is (a
  /// stride-1 conv that reads this output: codes equal to
  /// quantize_conv_planes of the f32 output); at least one is given.
  void dequantize_apply(const i32* acc, const ConvPlanes& layout, f32 scale,
                        const f32* bias, Tensor* y,
                        const ActivationCodes* next,
                        KernelArena& scratch) const;
};

/// A conv's input on the hardware: its f32 values, codes already made
/// of them, or both. A conv reads the codes when they serve as its own:
/// the same QuantParams, laid out for it or for a k x k sibling whose
/// planes a 1x1, padding-0 conv can read (ConvPlanes::sibling_view).
/// Otherwise it quantizes the values, which must then be given.
struct ConvInput {
  // Implicit: a conv called with a tensor or codes takes them as input.
  ConvInput(const Tensor& x) : values(&x) {}
  ConvInput(const ActivationCodes& c) : codes(&c) {}
  ConvInput(const Tensor& x, const ActivationCodes* c)
      : values(&x), codes(c) {}

  const Tensor* values = nullptr;  ///< [B, C, H, W], or null
  const ActivationCodes* codes = nullptr;
};

/// A conv layer on the hardware: the input is quantized straight into
/// the zero-padded code planes HybridCore::conv_into takes for a
/// PimMatmulLayer's deployment, and the accumulators are dequantized,
/// biased, laid out NCHW and finished by the site's epilogue in one pass.
class PimConv {
 public:
  PimConv(HybridCore& core, Conv2d& conv, NmConfig cfg, PeKind target,
          f32 activation_scale, const QuantizedNmMatrix* preset = nullptr);

  /// x: [B, C, H, W] float activations -> [B, out, Ho, Wo].
  ///
  /// Each input value is quantized once (quantize_conv_planes) into the
  /// planes of kernels/direct_conv.h, unless `in` carries codes this
  /// conv can read (ConvInput); padding taps and the K tail read code 0,
  /// which is quantize(0.0f). The raw backend convolves straight from
  /// the planes; the modeled one walks its PEs over the same planes —
  /// identical accumulators either way. The output is scale * acc + bias
  /// per element (bias 0.0f when the conv has none): the same two FP32
  /// roundings, in the same order, as dequantizing im2col rows and adding
  /// bias after. Every buffer but the returned tensor lives in the core's
  /// scratch arenas. Each element is finished by `epilogue` in the same
  /// pass (ConvEpilogue::dequantize_apply; the default leaves the plain
  /// conv output).
  Tensor forward(const ConvInput& in, const ConvEpilogue& epilogue = {});

  /// forward(in, epilogue) for a conv whose output `reader` (a stride-1
  /// conv on the same core, with this conv's out_channels as its
  /// in_channels) reads: the epilogue quantizes each finished
  /// value with reader's input scale straight into reader's code planes,
  /// in the core's activation scratch, and writes the f32 output to
  /// `*values` in the same pass when `values` is given (it may be the
  /// tensor `in` reads). The codes equal reader.quantize(forward(in,
  /// epilogue)), so reader.forward of them is bit-identical to reading
  /// the f32 output.
  ActivationCodes forward_codes(const ConvInput& in,
                                const ConvEpilogue& epilogue,
                                PimConv& reader, Tensor* values = nullptr);

  /// x quantized into this conv's input planes in the core's activation
  /// scratch, where the conv and its siblings can read them until the
  /// scratch is reset.
  ActivationCodes quantize(const Tensor& x);

  /// The kernel x kernel, stride `stride` average pool of x, quantized
  /// into this conv's input planes in the core's activation scratch
  /// (avg_pool_planes): the codes quantize(pooled x) makes, with no f32
  /// pooled tensor.
  ActivationCodes quantize_pooled(const Tensor& x, i64 kernel, i64 stride);

  const PimMatmulLayer& matmul_layer() const { return matmul_; }

 private:
  /// The planes layout of an input [batch, channels, height, width].
  ConvPlanes input_layout(i64 batch, i64 channels, i64 height,
                          i64 width) const;
  /// Planes for `layout` in the core's activation scratch, not yet
  /// written.
  ActivationCodes activation_codes(const ConvPlanes& layout);
  /// The layout and planes this conv reads `in` through: its codes when
  /// they serve, else its values quantized into the core's I/O scratch.
  std::pair<ConvPlanes, std::span<const i16>> input_planes(
      const ConvInput& in);
  /// The one conv dispatch behind forward and forward_codes: resets the
  /// core's I/O scratch, which holds only this dispatch's temporaries,
  /// picks the input planes, runs conv_into and finishes the output by
  /// `epilogue` into `*y` when `y` is given and into `reader`'s input
  /// codes, which it returns, when `reader` is.
  ActivationCodes dispatch(const ConvInput& in, const ConvEpilogue& epilogue,
                           Tensor* y, PimConv* reader);
  f32 output_scale() const {
    return matmul_.activation_scale() * matmul_.weight_scale();
  }
  const f32* bias() const { return bias_.empty() ? nullptr : bias_.data(); }

  HybridCore& core_;
  Conv2dGeometry geom_;
  PimMatmulLayer matmul_;
  Tensor bias_;  ///< [out] or empty
};

/// A fully-connected layer on the hardware.
class PimLinear {
 public:
  PimLinear(HybridCore& core, Linear& linear, NmConfig cfg, PeKind target,
            f32 activation_scale, const QuantizedNmMatrix* preset = nullptr);

  /// x: [B, in] -> [B, out].
  Tensor forward(const Tensor& x);

  const PimMatmulLayer& matmul_layer() const { return matmul_; }

 private:
  PimMatmulLayer matmul_;
  Tensor bias_;
};

}  // namespace msh
