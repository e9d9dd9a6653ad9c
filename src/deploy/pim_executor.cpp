#include "deploy/pim_executor.h"

#include "nn/loss.h"

#include <algorithm>
#include <cmath>

namespace msh {

namespace {

// Side-effect-free average pool, the same FP32 sums as nn::AvgPool2d.
// That layer caches its input shape for backward even in eval mode, so
// calibration pools here instead; hardware mode pools straight into the
// next conv's code planes with the same sums (avg_pool_planes).
Tensor avg_pool_eval(const Tensor& x, i64 kernel, i64 stride) {
  const i64 n = x.shape()[0], c = x.shape()[1], h = x.shape()[2],
            w = x.shape()[3];
  const i64 ho = (h - kernel) / stride + 1;
  const i64 wo = (w - kernel) / stride + 1;
  MSH_REQUIRE(ho > 0 && wo > 0);
  Tensor y(Shape{n, c, ho, wo});
  const f32 inv = 1.0f / static_cast<f32>(kernel * kernel);
  const f32* plane = x.data();
  f32* out = y.data();
  for (i64 p = 0; p < n * c; ++p, plane += h * w) {
    for (i64 oy = 0; oy < ho; ++oy) {
      for (i64 ox = 0; ox < wo; ++ox) {
        const f32* win = plane + oy * stride * w + ox * stride;
        f32 acc = 0.0f;
        for (i64 ky = 0; ky < kernel; ++ky)
          for (i64 kx = 0; kx < kernel; ++kx) acc += win[ky * w + kx];
        *out++ = acc * inv;
      }
    }
  }
  return y;
}

// Wear-tracker array keys: one surface per physical cell column group of
// a deployed layer. Keyed by stable layer name so the keys survive
// executor rebuilds (same banks, fresh HybridCore).
std::string wear_key_weights(const std::string& name) { return name + "/w"; }
std::string wear_key_indices(const std::string& name) { return name + "/i"; }
std::string wear_key_checks(const std::string& name) { return name + "/c"; }
std::string wear_key_parity(const std::string& name) { return name + "/p"; }

}  // namespace

// The executor-level backend knob wins over whatever the caller left in
// the nested core options — one switch flips the whole replica.
static HybridCoreOptions core_options(const PimExecutorOptions& options) {
  HybridCoreOptions core = options.core;
  core.backend = options.backend;
  return core;
}

PimRepNetExecutor::PimRepNetExecutor(RepNetModel& model,
                                     const Dataset& calibration,
                                     PimExecutorOptions options)
    : model_(model), options_(options), core_(core_options(options)) {
  calibrate(calibration);
  deploy();
}

PimRepNetExecutor::PimRepNetExecutor(
    RepNetModel& model, PimExecutorOptions options,
    const std::unordered_map<const void*, f32>& amax,
    std::shared_ptr<const DeploymentImage> image)
    : model_(model),
      options_(options),
      core_(core_options(options)),
      input_amax_(amax),
      source_image_(std::move(image)) {
  deploy();
}

std::unique_ptr<PimRepNetExecutor> PimRepNetExecutor::clone() const {
  // Skips the calibration walk (which runs layers in software and is
  // not read-only on the shared model) and redeploys from the recorded
  // ranges: bit-identical to this executor's as-programmed state.
  return std::unique_ptr<PimRepNetExecutor>(
      new PimRepNetExecutor(model_, options_, input_amax_, source_image_));
}

std::unique_ptr<PimRepNetExecutor> PimRepNetExecutor::clone_with_wear(
    std::shared_ptr<MramWearTracker> wear, WearPath path) const {
  PimExecutorOptions options = options_;
  options.wear = std::move(wear);
  options.wear_path = path;
  return std::unique_ptr<PimRepNetExecutor>(
      new PimRepNetExecutor(model_, options, input_amax_, source_image_));
}

std::unique_ptr<PimRepNetExecutor> PimRepNetExecutor::deploy_from_image(
    RepNetModel& model, PimExecutorOptions options,
    std::unordered_map<const void*, f32> amax,
    std::shared_ptr<const DeploymentImage> image) {
  MSH_REQUIRE(image != nullptr);
  return std::unique_ptr<PimRepNetExecutor>(
      new PimRepNetExecutor(model, options, amax, std::move(image)));
}

void PimRepNetExecutor::calibrate(const Dataset& calibration) {
  MSH_REQUIRE(calibration.size() > 0);
  const i64 batch = std::min(options_.calibration_batch, calibration.size());
  for (i64 b = 0; b < options_.calibration_batches; ++b) {
    const i64 begin = (b * batch) % std::max<i64>(1, calibration.size() - batch + 1);
    walk(calibration.batch_images(begin, batch), Mode::kCalibrate);
  }
}

f32 PimRepNetExecutor::scale_for(const void* layer) const {
  const auto it = input_amax_.find(layer);
  MSH_REQUIRE(it != input_amax_.end());
  const f32 amax = std::max(it->second, 1e-6f);
  return amax / 127.0f;
}

void PimRepNetExecutor::deploy() {
  Backbone& backbone = model_.backbone();
  named_layers_.clear();
  auto preset_for = [&](const std::string& name) -> const QuantizedNmMatrix* {
    if (!source_image_) return nullptr;
    if (!source_image_->contains(name)) {
      throw SimulationError("PimRepNetExecutor: deployment image has no "
                            "entry for layer '" + name + "'");
    }
    return &source_image_->get(name);
  };
  auto deploy_conv = [&](const std::string& name, Conv2d& conv,
                         PeKind target) {
    auto deployed = std::make_unique<PimConv>(core_, conv, options_.nm,
                                              target, scale_for(&conv),
                                              preset_for(name));
    named_layers_.emplace_back(name, &deployed->matmul_layer());
    convs_.emplace(&conv, std::move(deployed));
  };

  // Frozen backbone -> MRAM.
  for (i64 i = 0; i < backbone.stem().size(); ++i) {
    if (auto* conv = dynamic_cast<Conv2d*>(&backbone.stem().layer(i)))
      deploy_conv("stem." + std::to_string(i), *conv, PeKind::kMram);
  }
  for (i64 s = 0; s < backbone.num_stages(); ++s) {
    Sequential& stage = backbone.stage(s);
    for (i64 b = 0; b < stage.size(); ++b) {
      auto* block = dynamic_cast<ResidualBlock*>(&stage.layer(b));
      MSH_ENSURE(block != nullptr);
      const std::string prefix =
          "stage" + std::to_string(s) + ".block" + std::to_string(b);
      deploy_conv(prefix + ".conv1", block->conv1(), PeKind::kMram);
      deploy_conv(prefix + ".conv2", block->conv2(), PeKind::kMram);
      if (block->has_projection())
        deploy_conv(prefix + ".proj", block->projection(), PeKind::kMram);
    }
  }
  // Learnable path -> SRAM.
  for (i64 m = 0; m < model_.num_rep_modules(); ++m) {
    RepModule& rep = model_.rep_module(m);
    const std::string prefix = "rep" + std::to_string(m);
    deploy_conv(prefix + ".reduce", rep.reduce(), PeKind::kSram);
    deploy_conv(prefix + ".expand", rep.expand(), PeKind::kSram);
  }
  classifier_ = std::make_unique<PimLinear>(
      core_, model_.classifier(), options_.nm, PeKind::kSram,
      scale_for(&model_.classifier()), preset_for("classifier"));
  named_layers_.emplace_back("classifier", &classifier_->matmul_layer());

  protect_arrays();
  handle_names_.assign(static_cast<size_t>(core_.num_deployments()), "");
  for (const auto& [name, layer] : named_layers_)
    handle_names_[static_cast<size_t>(layer->handle())] = name;
  // Protection snapshots the intended (golden) codes first; the physical
  // programming pass below may then leave achieved != desired on worn or
  // verify-failed words, which scrub/verify judge against that intent.
  program_nvm_wear(options_.wear_path);
}

void PimRepNetExecutor::program_nvm_wear(WearPath path) {
  if (!options_.wear) return;
  MramWearTracker& wear = *options_.wear;
  for (i64 h = 0; h < core_.num_deployments(); ++h) {
    const HybridCore::NvmCodeView view = core_.nvm_codes(h);
    if (view.is_sram) continue;  // CMOS arrays do not wear
    ArrayProtection& p = protections_[static_cast<size_t>(h)];
    const std::string& name = handle_names_[static_cast<size_t>(h)];
    const i32 idx_bits = std::max(1, view.index_bits);

    std::vector<u8> desired(p.golden_weights.size());
    std::vector<u8> achieved(p.golden_weights.size());
    for (size_t i = 0; i < desired.size(); ++i)
      desired[i] = static_cast<u8>(p.golden_weights[i]);
    wear.program(wear_key_weights(name), desired, achieved, 8, path);
    for (size_t i = 0; i < achieved.size(); ++i)
      *view.weights[i] = static_cast<i8>(achieved[i]);

    desired.assign(p.golden_indices.begin(), p.golden_indices.end());
    achieved.resize(desired.size());
    wear.program(wear_key_indices(name), desired, achieved, idx_bits, path);
    for (size_t i = 0; i < achieved.size(); ++i)
      *view.indices[i] = achieved[i];

    if (options_.ecc != EccMode::kNone) {
      // Check/parity cells share the imperfect medium. Desired values
      // re-derive from golden (p.weight_checks holds the *achieved*
      // state once programming goes through the tracker).
      desired.resize(p.golden_weights.size());
      achieved.resize(desired.size());
      for (size_t i = 0; i < desired.size(); ++i) {
        desired[i] = weight_check_word(options_.ecc,
                                       static_cast<u8>(p.golden_weights[i]));
      }
      wear.program(wear_key_checks(name), desired, achieved,
                   weight_check_bits(options_.ecc), path);
      p.weight_checks.assign(achieved.begin(), achieved.end());

      desired.resize(p.golden_indices.size());
      achieved.resize(desired.size());
      for (size_t i = 0; i < desired.size(); ++i)
        desired[i] = parity_bit(p.golden_indices[i], idx_bits);
      wear.program(wear_key_parity(name), desired, achieved, 1, path);
      p.index_parity.assign(achieved.begin(), achieved.end());
    }
  }
}

void PimRepNetExecutor::reprogram_nvm(WearPath path) {
  program_nvm_wear(path);
}

void PimRepNetExecutor::sync_wear_resident(i64 handle) {
  if (!options_.wear) return;
  const HybridCore::NvmCodeView view = core_.nvm_codes(handle);
  if (view.is_sram) return;
  MramWearTracker& wear = *options_.wear;
  const ArrayProtection& p = protections_[static_cast<size_t>(handle)];
  const std::string& name = handle_names_[static_cast<size_t>(handle)];
  std::vector<u8> values(view.weights.size());
  for (size_t i = 0; i < values.size(); ++i)
    values[i] = static_cast<u8>(*view.weights[i]);
  wear.absorb_disturbance(wear_key_weights(name), values);
  values.resize(view.indices.size());
  for (size_t i = 0; i < values.size(); ++i) values[i] = *view.indices[i];
  wear.absorb_disturbance(wear_key_indices(name), values);
  if (options_.ecc != EccMode::kNone) {
    wear.absorb_disturbance(wear_key_checks(name), p.weight_checks);
    wear.absorb_disturbance(wear_key_parity(name), p.index_parity);
  }
}

std::vector<std::string> PimRepNetExecutor::layer_names() const {
  std::vector<std::string> names;
  names.reserve(named_layers_.size());
  for (const auto& [name, layer] : named_layers_) names.push_back(name);
  return names;
}

DeploymentImage PimRepNetExecutor::export_image() const {
  DeploymentImage image;
  for (const auto& [name, layer] : named_layers_)
    image.add(name, layer->deployed_matrix());
  return image;
}

std::string PimRepNetExecutor::verify_against(const DeploymentImage& image) {
  for (const auto& [name, layer] : named_layers_) {
    if (!image.contains(name))
      return "layer '" + name + "': no entry in the deployment image";
    const QuantizedNmMatrix& want = image.get(name);
    const QuantizedNmMatrix& have = layer->deployed_matrix();
    if (want.config().n != have.config().n ||
        want.config().m != have.config().m ||
        want.dense_rows() != have.dense_rows() ||
        want.cols() != have.cols()) {
      return "layer '" + name + "': geometry mismatch (image " +
             std::to_string(want.dense_rows()) + " x " +
             std::to_string(want.cols()) + " @ " +
             std::to_string(want.config().n) + ":" +
             std::to_string(want.config().m) + ")";
    }
    if (want.scale() != have.scale())
      return "layer '" + name + "': dequantization scale mismatch";
    // Physical probe: a deterministic INT8 vector through the live PE
    // arrays must reproduce the image's reference matvec bit-exactly.
    // Catches programming corruption the metadata checks above cannot.
    std::vector<i8> probe(static_cast<size_t>(want.dense_rows()));
    for (size_t i = 0; i < probe.size(); ++i)
      probe[i] = static_cast<i8>(static_cast<i64>(i * 37 + 11) % 255 - 127);
    const std::vector<i32> expect = want.reference_matvec(probe);
    const std::vector<i32> got = core_.matvec(layer->handle(), probe);
    MSH_ENSURE(expect.size() == got.size());
    for (size_t c = 0; c < got.size(); ++c) {
      if (got[c] != expect[c]) {
        return "layer '" + name + "': probe matvec diverges at column " +
               std::to_string(c) + " (array " + std::to_string(got[c]) +
               ", image " + std::to_string(expect[c]) + ")";
      }
    }
  }
  return "";
}

void PimRepNetExecutor::protect_arrays() {
  protections_.clear();
  protections_.reserve(static_cast<size_t>(core_.num_deployments()));
  for (i64 h = 0; h < core_.num_deployments(); ++h) {
    const HybridCore::NvmCodeView view = core_.nvm_codes(h);
    const i32 idx_bits = std::max(1, view.index_bits);
    ArrayProtection p;
    p.golden_weights.reserve(view.weights.size());
    p.golden_indices.reserve(view.indices.size());
    for (const i8* w : view.weights) p.golden_weights.push_back(*w);
    for (const u8* idx : view.indices) p.golden_indices.push_back(*idx);
    if (options_.ecc != EccMode::kNone) {
      p.weight_checks.reserve(view.weights.size());
      for (const i8* w : view.weights) {
        p.weight_checks.push_back(
            weight_check_word(options_.ecc, static_cast<u8>(*w)));
      }
      p.index_parity.reserve(view.indices.size());
      for (const u8* idx : view.indices)
        p.index_parity.push_back(parity_bit(*idx, idx_bits));
    }
    protections_.push_back(std::move(p));
  }
}

FaultStats PimRepNetExecutor::inject_nvm_faults(const MtjFaultModel& model,
                                                Rng& rng) {
  FaultStats total;
  for (i64 h = 0; h < core_.num_deployments(); ++h) {
    const HybridCore::NvmCodeView view = core_.nvm_codes(h);
    if (view.is_sram) continue;  // CMOS cells: no MTJ failure modes
    const i32 idx_bits = std::max(1, view.index_bits);
    total += inject_bit_errors(view.weights, model, rng, 8);
    total += inject_bit_errors(view.indices, model, rng, idx_bits);
    if (options_.ecc != EccMode::kNone) {
      // Check cells occupy spare columns of the same imperfect array.
      ArrayProtection& p = protections_[static_cast<size_t>(h)];
      total += inject_bit_errors(std::span<u8>(p.weight_checks), model, rng,
                                 weight_check_bits(options_.ecc));
      total += inject_bit_errors(std::span<u8>(p.index_parity), model, rng, 1);
    }
    // Faults change what the cells hold without write pulses; keep the
    // wear tracker's resident view (and thus delta programming) honest.
    sync_wear_resident(h);
  }
  return total;
}

PimRepNetExecutor::PowerLossStats PimRepNetExecutor::power_fail(
    f64 outage_s, u64 seed, f64 retention_tau_s) {
  MSH_REQUIRE(outage_s >= 0.0);
  PowerLossStats stats;
  Rng rng(seed ^ 0xdeadbeefcafef00dull);
  const MtjFaultModel drift =
      MtjFaultModel::retention_only(outage_s, retention_tau_s);
  for (i64 h = 0; h < core_.num_deployments(); ++h) {
    const HybridCore::NvmCodeView view = core_.nvm_codes(h);
    ArrayProtection& p = protections_[static_cast<size_t>(h)];
    if (view.is_sram) {
      // CMOS arrays power up in an undefined state: scramble every cell,
      // including the spare check columns — nothing volatile survives.
      const u8 idx_mask = static_cast<u8>(
          (1u << static_cast<u32>(std::max(1, view.index_bits))) - 1u);
      for (i8* w : view.weights)
        *w = static_cast<i8>(rng.next_u64() & 0xFFu);
      for (u8* idx : view.indices)
        *idx = static_cast<u8>(rng.next_u64()) & idx_mask;
      for (u8& check : p.weight_checks)
        check = static_cast<u8>(rng.next_u64() & 0x1Fu);
      for (u8& parity : p.index_parity)
        parity = static_cast<u8>(rng.next_u64() & 1u);
      const i64 cells =
          static_cast<i64>(view.weights.size() + view.indices.size() +
                           p.weight_checks.size() + p.index_parity.size());
      stats.sram_cells_wiped += cells;
      stats.sram_bytes_wiped +=
          static_cast<i64>(view.weights.size() + view.indices.size());
    } else {
      // MRAM holds its state, minus thermal relaxation over the outage.
      const i32 idx_bits = std::max(1, view.index_bits);
      stats.mram_drift += inject_bit_errors(view.weights, drift, rng, 8);
      stats.mram_drift += inject_bit_errors(view.indices, drift, rng,
                                            idx_bits);
      if (options_.ecc != EccMode::kNone) {
        stats.mram_drift +=
            inject_bit_errors(std::span<u8>(p.weight_checks), drift, rng,
                              weight_check_bits(options_.ecc));
        stats.mram_drift += inject_bit_errors(std::span<u8>(p.index_parity),
                                              drift, rng, 1);
      }
      sync_wear_resident(h);  // drift moved cells without write pulses
    }
  }
  return stats;
}

PimRepNetExecutor::WarmRestartStats PimRepNetExecutor::warm_restart() {
  WarmRestartStats stats;
  // Re-program the volatile arrays from the golden copy — the host-side
  // image this deployment was flashed from — and re-derive their check
  // cells, exactly like the original protect_arrays() pass.
  for (i64 h = 0; h < core_.num_deployments(); ++h) {
    const HybridCore::NvmCodeView view = core_.nvm_codes(h);
    if (!view.is_sram) continue;
    ArrayProtection& p = protections_[static_cast<size_t>(h)];
    const i32 idx_bits = std::max(1, view.index_bits);
    for (size_t i = 0; i < view.weights.size(); ++i)
      *view.weights[i] = p.golden_weights[i];
    for (size_t i = 0; i < view.indices.size(); ++i)
      *view.indices[i] = p.golden_indices[i];
    if (options_.ecc != EccMode::kNone) {
      for (size_t i = 0; i < p.weight_checks.size(); ++i) {
        p.weight_checks[i] = weight_check_word(
            options_.ecc, static_cast<u8>(p.golden_weights[i]));
      }
      for (size_t i = 0; i < p.index_parity.size(); ++i)
        p.index_parity[i] = parity_bit(p.golden_indices[i], idx_bits);
    }
    stats.sram_cells_restored +=
        static_cast<i64>(view.weights.size() + view.indices.size());
  }
  // Repairing scrub over the drifted MRAM (the SRAM arrays were just
  // restored and scrub clean). SEC-DED corrects single-bit relaxation in
  // place; detected-uncorrectable words re-fetch from golden. Whatever
  // the code missed stays behind as silent_remaining for the caller's
  // verify gate to judge.
  for (const ScrubReport& report : scrub(/*repair_detected_from_golden=*/true,
                                         WearPath::kRecovery)) {
    stats.ecc_corrected += report.weights.corrected + report.indices.corrected;
    stats.ecc_refetched += report.weights.detected_uncorrectable +
                           report.indices.detected_uncorrectable;
    stats.silent_remaining += report.weights.silent + report.indices.silent;
  }
  return stats;
}

std::vector<PimRepNetExecutor::ScrubReport> PimRepNetExecutor::scrub(
    bool repair_detected_from_golden, WearPath wear_path) {
  std::vector<ScrubReport> reports;
  reports.reserve(static_cast<size_t>(core_.num_deployments()));
  for (i64 h = 0; h < core_.num_deployments(); ++h) {
    const HybridCore::NvmCodeView view = core_.nvm_codes(h);
    ArrayProtection& p = protections_[static_cast<size_t>(h)];
    const i32 idx_bits = std::max(1, view.index_bits);
    // Repair writes on MRAM are physical programming pulses: route them
    // through the wear tracker, one *word* at a time — a scrub must never
    // amplify wear by rewriting a whole span for one bad word (and
    // read-before-write makes a repair that matches the resident value
    // free). Without a tracker (or on SRAM) the write is ideal.
    const bool wear_writes = options_.wear != nullptr && !view.is_sram;
    const std::string& lname = handle_names_[static_cast<size_t>(h)];
    const i32 check_bits = weight_check_bits(options_.ecc);
    auto mram_write = [&](const std::string& key, size_t word, u8 desired,
                          i32 bits) -> u8 {
      if (!wear_writes) return desired;
      return options_.wear->write_word(key, static_cast<i64>(word), desired,
                                       bits, wear_path);
    };
    // Re-fetches weight word i and its check word from the golden copy.
    auto refetch_weight = [&](size_t i) {
      const u8 golden = static_cast<u8>(p.golden_weights[i]);
      *view.weights[i] =
          static_cast<i8>(mram_write(wear_key_weights(lname), i, golden, 8));
      p.weight_checks[i] =
          mram_write(wear_key_checks(lname), i,
                     weight_check_word(options_.ecc, golden), check_bits);
    };
    ScrubReport report;
    report.handle = h;
    report.is_sram = view.is_sram;

    for (size_t i = 0; i < view.weights.size(); ++i) {
      ++report.weights.words_checked;
      i8& cell = *view.weights[i];
      bool detected = false;
      switch (options_.ecc) {
        case EccMode::kNone:
          break;  // nothing to decode; golden comparison below
        case EccMode::kParity: {
          if (parity_bit(static_cast<u8>(cell), 8) !=
              (p.weight_checks[i] & 1u)) {
            detected = true;
            ++report.weights.detected_uncorrectable;
            if (repair_detected_from_golden) refetch_weight(i);
          }
          break;
        }
        case EccMode::kSecDed: {
          u8 data = static_cast<u8>(cell);
          u8 check = p.weight_checks[i];
          switch (secded_decode(data, check)) {
            case SecDedOutcome::kClean:
              break;
            case SecDedOutcome::kCorrectedSingle:
              ++report.weights.corrected;
              cell = static_cast<i8>(
                  mram_write(wear_key_weights(lname), i, data, 8));
              p.weight_checks[i] =
                  mram_write(wear_key_checks(lname), i, check, check_bits);
              break;
            case SecDedOutcome::kDetectedDouble:
              detected = true;
              ++report.weights.detected_uncorrectable;
              if (repair_detected_from_golden) refetch_weight(i);
              break;
          }
          break;
        }
      }
      // Whatever survives decode (or was never protected) but differs
      // from the as-programmed image escaped the code: silent.
      if (!detected && cell != p.golden_weights[i]) ++report.weights.silent;
    }

    for (size_t i = 0; i < view.indices.size(); ++i) {
      ++report.indices.words_checked;
      u8& cell = *view.indices[i];
      bool detected = false;
      if (options_.ecc != EccMode::kNone &&
          parity_bit(cell, idx_bits) != (p.index_parity[i] & 1u)) {
        detected = true;
        ++report.indices.detected_uncorrectable;
        if (repair_detected_from_golden) {
          // Re-fetch repairs either a flipped index bit or a flipped
          // parity cell — both land back at the programmed state.
          cell = mram_write(wear_key_indices(lname), i, p.golden_indices[i],
                            idx_bits);
          p.index_parity[i] =
              mram_write(wear_key_parity(lname), i,
                         parity_bit(p.golden_indices[i], idx_bits), 1);
        }
      }
      if (!detected && cell != p.golden_indices[i]) ++report.indices.silent;
    }

    reports.push_back(report);
  }
  return reports;
}

Tensor PimRepNetExecutor::apply_conv(Conv2d& conv, const ConvInput& in,
                                     Mode mode,
                                     const ConvEpilogue& epilogue) {
  if (mode == Mode::kCalibrate) {
    const Tensor& x = *in.values;
    auto [it, inserted] = input_amax_.emplace(&conv, x.abs_max());
    if (!inserted) it->second = std::max(it->second, x.abs_max());
    Tensor y = conv.forward(x, /*training=*/false);
    epilogue.apply(y);
    return y;
  }
  return deployed(conv).forward(in, epilogue);
}

Tensor PimRepNetExecutor::apply_chain(Conv2d& first, const ConvInput& in,
                                      const ConvEpilogue& first_epilogue,
                                      Conv2d& second,
                                      const ConvEpilogue& second_epilogue,
                                      Mode mode) {
  if (mode == Mode::kCalibrate) {
    // Records the second conv's input range from the f32 intermediate.
    return apply_conv(second, apply_conv(first, in, mode, first_epilogue),
                      mode, second_epilogue);
  }
  PimConv& reader = deployed(second);
  return reader.forward(
      deployed(first).forward_codes(in, first_epilogue, reader),
      second_epilogue);
}

PimConv& PimRepNetExecutor::deployed(const Conv2d& conv) {
  const auto it = convs_.find(&conv);
  MSH_ENSURE(it != convs_.end());
  return *it->second;
}

Tensor PimRepNetExecutor::apply_sequential(
    Sequential& seq, const Tensor& x, Mode mode, Conv2d* next,
    std::optional<ActivationCodes>* next_codes) {
  Tensor y;
  const Tensor* in = &x;
  for (i64 i = 0; i < seq.size(); ++i, in = &y) {
    auto* conv = dynamic_cast<Conv2d*>(&seq.layer(i));
    if (conv == nullptr) {
      y = seq.layer(i).forward(*in, /*training=*/false);
      continue;
    }
    // A conv folds the BatchNorm2d and the nn::Relu right after it.
    ConvEpilogue epilogue;
    if (i + 1 < seq.size()) {
      epilogue.bn = dynamic_cast<BatchNorm2d*>(&seq.layer(i + 1));
      if (epilogue.bn != nullptr) ++i;
    }
    if (i + 1 < seq.size() && dynamic_cast<Relu*>(&seq.layer(i + 1))) {
      epilogue.relu = ConvEpilogue::Relu::kPositive;
      ++i;
    }
    if (mode == Mode::kHardware && next != nullptr && i + 1 == seq.size() &&
        next->geometry().stride == 1) {
      *next_codes =
          deployed(*conv).forward_codes(*in, epilogue, deployed(*next), &y);
    } else {
      y = apply_conv(*conv, *in, mode, epilogue);
    }
  }
  if (in == &x) return x;
  return y;
}

Tensor PimRepNetExecutor::apply_residual(ResidualBlock& block,
                                         const Tensor& x,
                                         const ActivationCodes* codes,
                                         Mode mode) {
  using Relu = ConvEpilogue::Relu;
  // The shortcut first, so conv1's output can go straight to conv2.
  const Tensor projected =
      block.has_projection()
          ? apply_conv(block.projection(), {x, codes}, mode,
                       {.bn = &block.projection_bn()})
          : Tensor();
  const Tensor& shortcut = block.has_projection() ? projected : x;
  return apply_chain(
      block.conv1(), {x, codes}, {.bn = &block.bn1(), .relu = Relu::kMax},
      block.conv2(),
      {.bn = &block.bn2(), .residual = &shortcut, .relu = Relu::kMax}, mode);
}

Tensor PimRepNetExecutor::apply_rep(RepModule& rep, const Tensor& x,
                                    const ActivationCodes* codes, Mode mode) {
  const ConvEpilogue reduce_epilogue{.relu = ConvEpilogue::Relu::kMax};
  if (!rep.has_pool()) {
    return apply_chain(rep.reduce(), {x, codes}, reduce_epilogue,
                       rep.expand(), {}, mode);
  }
  const i64 kernel = rep.pool().kernel(), stride = rep.pool().stride();
  // Calibration records reduce's input range from the f32 pooled tensor;
  // on the hardware the pool writes reduce's input codes straight from x.
  if (mode == Mode::kCalibrate) {
    return apply_chain(rep.reduce(), avg_pool_eval(x, kernel, stride),
                       reduce_epilogue, rep.expand(), {}, mode);
  }
  return apply_chain(rep.reduce(),
                     deployed(rep.reduce()).quantize_pooled(x, kernel, stride),
                     reduce_epilogue, rep.expand(), {}, mode);
}

Tensor PimRepNetExecutor::apply_classifier(const Tensor& x, Mode mode) {
  if (mode == Mode::kCalibrate) {
    auto [it, inserted] =
        input_amax_.emplace(&model_.classifier(), x.abs_max());
    if (!inserted) it->second = std::max(it->second, x.abs_max());
    return model_.classifier().forward(x, /*training=*/false);
  }
  return classifier_->forward(x);
}

Tensor PimRepNetExecutor::walk(const Tensor& images, Mode mode) {
  Backbone& backbone = model_.backbone();
  MSH_ENSURE(backbone.num_stages() > 0);
  auto block = [&](i64 s, i64 b) -> ResidualBlock& {
    auto* found = dynamic_cast<ResidualBlock*>(&backbone.stage(s).layer(b));
    MSH_ENSURE(found != nullptr);
    return *found;
  };
  if (mode == Mode::kHardware) core_.activation_scratch().reset();
  // Each stage input becomes codes once, for every conv that reads it:
  // the stem's epilogue writes stage 0's in the same pass as its f32
  // output; a stage input the codes lack is quantized here.
  std::optional<ActivationCodes> codes;
  MSH_ENSURE(backbone.stage(0).size() > 0);
  Tensor a = apply_sequential(backbone.stem(), images, mode,
                              &block(0, 0).conv1(), &codes);
  Tensor r;
  for (i64 s = 0; s < backbone.num_stages(); ++s) {
    Tensor u = std::move(a);
    if (!r.empty()) {  // activation connector: values the codes lack
      u += r;
      codes.reset();
    }
    MSH_ENSURE(backbone.stage(s).size() > 0);
    if (mode == Mode::kHardware && !codes) {
      codes = deployed(block(s, 0).conv1()).quantize(u);
    }
    const ActivationCodes* in = codes ? &*codes : nullptr;
    for (i64 b = 0; b < backbone.stage(s).size(); ++b) {
      a = b == 0 ? apply_residual(block(s, b), u, in, mode)
                 : apply_residual(block(s, b), a, nullptr, mode);
    }
    r = apply_rep(model_.rep_module(s), u, in, mode);
  }
  a += r;  // merge

  // Global average pool + flatten, digitally.
  const i64 n = a.shape()[0], c = a.shape()[1],
            spatial = a.shape()[2] * a.shape()[3];
  Tensor features = Tensor::uninitialized(Shape{n, c});
  const f32* plane = a.data();
  for (i64 i = 0; i < n * c; ++i, plane += spatial) {
    f64 acc = 0.0;
    for (i64 s = 0; s < spatial; ++s) acc += plane[s];
    features.data()[i] = static_cast<f32>(acc / static_cast<f64>(spatial));
  }
  return apply_classifier(features, mode);
}

Tensor PimRepNetExecutor::forward(const Tensor& images) {
  return walk(images, Mode::kHardware);
}

Tensor PimRepNetExecutor::forward_with(KernelBackend backend,
                                       const Tensor& images) {
  // Restores the executor's backend on every exit, throws included.
  struct Restore {
    HybridCore& core;
    KernelBackend backend;
    ~Restore() { core.set_backend(backend); }
  } restore{core_, options_.backend};
  core_.set_backend(backend);
  return forward(images);
}

f64 PimRepNetExecutor::evaluate(const Dataset& test, i64 batch) {
  MSH_REQUIRE(test.size() > 0);
  f64 weighted = 0.0;
  i64 counted = 0;
  for (i64 begin = 0; begin < test.size(); begin += batch) {
    const i64 count = std::min(batch, test.size() - begin);
    const Tensor logits = forward(test.batch_images(begin, count));
    const auto labels = test.batch_labels(begin, count);
    weighted += accuracy(logits, std::span<const i32>(labels)) *
                static_cast<f64>(count);
    counted += count;
  }
  return weighted / static_cast<f64>(counted);
}

std::vector<std::unique_ptr<PimRepNetExecutor>> make_executor_replicas(
    RepNetModel& model, const Dataset& calibration, i64 count,
    PimExecutorOptions options,
    const std::vector<std::shared_ptr<MramWearTracker>>& wear) {
  MSH_REQUIRE(count > 0);
  MSH_REQUIRE(wear.empty() || static_cast<i64>(wear.size()) == count);
  std::vector<std::unique_ptr<PimRepNetExecutor>> replicas;
  replicas.reserve(static_cast<size_t>(count));
  if (!wear.empty()) options.wear = wear[0];
  replicas.push_back(
      std::make_unique<PimRepNetExecutor>(model, calibration, options));
  // Remaining replicas clone the first: one calibration walk total, and
  // every clone is bit-identical to a directly constructed executor
  // (deploy() quantizes from the same recorded ranges). With wear
  // tracking, each replica programs its own physical medium.
  for (i64 i = 1; i < count; ++i) {
    replicas.push_back(
        wear.empty() ? replicas[0]->clone()
                     : replicas[0]->clone_with_wear(
                           wear[static_cast<size_t>(i)], options.wear_path));
  }
  return replicas;
}

i64 PimRepNetExecutor::sparse_deployments() const {
  i64 count = 0;
  for (const auto& [conv, deployed] : convs_) {
    count += deployed->matmul_layer().deployed_sparse();
  }
  if (classifier_ && classifier_->matmul_layer().deployed_sparse()) ++count;
  return count;
}

}  // namespace msh
