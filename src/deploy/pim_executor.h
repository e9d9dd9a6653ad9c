// Full-model deployment: every weight layer of a trained Rep-Net model
// placed on the hybrid core (frozen backbone convs -> MRAM sparse PEs,
// Rep-path convs + classifier -> SRAM sparse PEs, per the paper's Fig 6
// mapping) and whole-image inference executed through the functional PE
// simulators with INT8 weights AND INT8 activations.
//
// Non-matmul operators (BatchNorm in inference mode, ReLU, pooling,
// residual adds, the activation connectors) run in the digital periphery
// at full precision, as in the paper's fully-digital design.
//
// Activation scales come from a calibration pass: a software walk over
// calibration data records each matmul layer's input range.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "deploy/ecc.h"
#include "deploy/image_io.h"
#include "deploy/pim_layer.h"
#include "device/faults.h"
#include "device/wear.h"
#include "repnet/repnet_model.h"
#include "workloads/dataset.h"

namespace msh {

struct PimExecutorOptions {
  HybridCoreOptions core = {};
  /// Packing attempted for every layer; layers whose trained weights do
  /// not satisfy the pattern (e.g. an unpruned backbone) fall back to
  /// dense M:M packing automatically.
  NmConfig nm = kSparse1of4;
  i64 calibration_batch = 16;
  i64 calibration_batches = 2;
  /// Protection applied to deployed weight/index codes: SEC-DED check
  /// words on weight bytes + even parity on index cells (spare array
  /// columns), parity-only on both, or raw.
  EccMode ecc = EccMode::kNone;
  /// Endurance model of the physical MRAM medium this executor programs.
  /// Null (the default) keeps programming ideal and free. Non-null, every
  /// MRAM array write — deploy, redeploy, scrub repair — routes through
  /// the tracker: same-value words are skipped (delta programming),
  /// pulses verify-and-retry with the MTJ error rates, worn-out words pin
  /// (achieved != desired; the verify gates catch it). The tracker
  /// outlives executor rebuilds — heal/swap/publish replace the executor
  /// but reprogram the *same* banks — so replicas sharing a physical
  /// accelerator must share one tracker (see ServingEngine).
  std::shared_ptr<MramWearTracker> wear;
  /// Metrics attribution for this deployment's programming pulses.
  WearPath wear_path = WearPath::kDeploy;
  /// Compute backend (DESIGN §5i). kRaw (the default) runs the SIMD
  /// host kernels over the live cells — bit-identical forwards, exported
  /// images and verify probes, but modeled metrics (PE events, bus/buffer
  /// traffic, makespan) report zero. kModeled walks the functional PE
  /// datapaths with full cycle/event accounting: request it explicitly
  /// wherever core().pe_events() or last_makespan() is read. Overrides
  /// core.backend; clones and image deployments inherit it, so heal,
  /// swap and recovery rebuilds stay on the chosen backend.
  KernelBackend backend = KernelBackend::kRaw;
};

class PimRepNetExecutor {
 public:
  /// Deploys `model` (which must stay alive and unchanged) using
  /// `calibration` data for activation ranges.
  PimRepNetExecutor(RepNetModel& model, const Dataset& calibration,
                    PimExecutorOptions options = {});

  /// Hardware inference: [B, C, H, W] images -> [B, classes] logits.
  ///
  /// Thread-safety contract: an executor is externally single-threaded —
  /// at most one thread may call into it at a time (it mutates its own
  /// HybridCore event counters) and forward() runs every layer on that
  /// calling thread, starting no thread of its own. Hardware-mode forward
  /// treats the shared RepNetModel as strictly read-only. Several
  /// replicas deployed from the same model may therefore run forward()
  /// concurrently, one (external) thread per replica — the serving
  /// runtime's concurrency model (see src/runtime), and the only host
  /// parallelism; modeled parallelism is the SIMT schedule over the PE
  /// pool (last_makespan()).
  Tensor forward(const Tensor& images);

  /// forward() on `backend` for this one call, then back to the
  /// executor's own backend. Both backends read the same live cells, so
  /// this is the serving engine's shadow oracle: a raw-served batch
  /// re-run through the modeled kernels on the very cells (faults
  /// included) that produced it. A modeled call's events accumulate on
  /// core().
  Tensor forward_with(KernelBackend backend, const Tensor& images);

  /// Top-1 accuracy over a dataset, computed on the hardware.
  f64 evaluate(const Dataset& test, i64 batch = 32);

  const HybridCore& core() const { return core_; }
  i64 deployed_convs() const { return static_cast<i64>(convs_.size()); }
  /// Count of layers that deployed with the requested sparse packing.
  i64 sparse_deployments() const;

  EccMode ecc_mode() const { return options_.ecc; }

  /// Scrub result for one deployed array (one HybridCore handle).
  struct ScrubReport {
    i64 handle = -1;
    bool is_sram = false;
    EccStats weights;
    EccStats indices;
    bool clean() const { return weights.clean() && indices.clean(); }
  };

  /// Applies the MTJ fault model to the PE-resident codes of every
  /// MRAM-deployed array — weight bytes, index cells, and (when
  /// protected) the stored check/parity cells, which live in the same
  /// imperfect medium. SRAM deployments are CMOS and not touched.
  /// Deterministic in `rng`.
  FaultStats inject_nvm_faults(const MtjFaultModel& model, Rng& rng);

  /// What a simulated power interruption did to the arrays.
  struct PowerLossStats {
    i64 sram_cells_wiped = 0;  ///< weight + index + check cells scrambled
    i64 sram_bytes_wiped = 0;  ///< payload bytes (weights + indices)
    FaultStats mram_drift;     ///< retention relaxation over the outage
  };

  /// Simulates a power interruption of `outage_s` seconds at the array
  /// level: every SRAM-deployed cell (weights, indices, and their
  /// check/parity spare columns — all CMOS, all volatile) is scrambled to
  /// the undefined power-up state, and every MRAM cell takes retention
  /// drift proportional to the outage duration (AP->P relaxation, plus
  /// its check cells — non-volatile but not immortal). Deterministic in
  /// `seed`. `retention_tau_s` <= 0 keeps the device default. The
  /// executor must not forward() again until warm_restart().
  PowerLossStats power_fail(f64 outage_s, u64 seed,
                            f64 retention_tau_s = 0.0);

  /// What warm_restart() rebuilt.
  struct WarmRestartStats {
    i64 sram_cells_restored = 0;  ///< re-programmed from the golden image
    i64 ecc_corrected = 0;        ///< MRAM single-bit drift fixed by SEC-DED
    i64 ecc_refetched = 0;        ///< detected-uncorrectable, golden re-fetch
    i64 silent_remaining = 0;     ///< drift the code missed (verify catches)
  };

  /// Warm restart after power_fail(): re-programs every SRAM array from
  /// the executor's golden copy (the host/flash image the deployment was
  /// programmed from — exactly what boot firmware re-fetches), re-encodes
  /// the SRAM check cells, then runs a repairing ECC scrub over the
  /// drifted MRAM arrays. With EccMode::kNone or kParity some drift may
  /// survive as `silent_remaining`; the caller's verify-then-promote
  /// gate (verify_against) decides whether the replica re-enters service
  /// or gets a cold redeploy.
  WarmRestartStats warm_restart();

  /// Decode/correct/re-encode pass over every deployed array.
  /// kSecDed corrects single-bit errors in place; kParity only detects.
  /// With `repair_detected_from_golden`, detected-uncorrectable words
  /// are re-fetched from the executor's golden copy (the host-DRAM
  /// model image every deployment was programmed from). `silent` counts
  /// corruption the code missed or miscorrected, measured against that
  /// same golden copy. With a wear tracker, MRAM repair writes go
  /// through it word by word (`wear_path` attributes them) — only the
  /// corrected words cost pulses, never the whole span.
  std::vector<ScrubReport> scrub(bool repair_detected_from_golden = false,
                                 WearPath wear_path = WearPath::kScrub);

  /// Builds a fresh executor replica (own HybridCore, freshly encoded
  /// protection) reusing this executor's calibration. Read-only on the
  /// shared model, so safe while other replicas are forwarding
  /// concurrently — the serving runtime's redeploy-after-failure path.
  /// A replica deployed from an image (see deploy_from_image) redeploys
  /// from that same image: heal-after-swap restores the swapped weights,
  /// not the original model's.
  std::unique_ptr<PimRepNetExecutor> clone() const;

  /// clone() with a different wear tracker and/or pulse attribution —
  /// how the serving engine gives each worker's redeploys their own
  /// physical medium (heal -> kHeal, recovery -> kRecovery). A null
  /// tracker clones without endurance modeling.
  std::unique_ptr<PimRepNetExecutor> clone_with_wear(
      std::shared_ptr<MramWearTracker> wear, WearPath path) const;

  /// Re-programs every MRAM array to its golden (intended) state through
  /// the wear tracker — the physical cost of restoring a stashed replica
  /// after a failed swap roll. No-op without a tracker. Delta
  /// programming makes an undisturbed restore nearly free.
  void reprogram_nvm(WearPath path);

  /// The physical-medium model this executor programs through (null =
  /// ideal programming).
  const std::shared_ptr<MramWearTracker>& wear_tracker() const {
    return options_.wear;
  }

  /// Deploys `model` with `options` and calibration `amax`, programming
  /// the PE arrays from `image`'s quantized codes instead of
  /// re-quantizing the model — the model-swap path. Every deployed layer
  /// must have a matching entry (by layer name); missing or ill-fitting
  /// entries throw SimulationError. The image pointer is retained as the
  /// executor's deployment provenance.
  static std::unique_ptr<PimRepNetExecutor> deploy_from_image(
      RepNetModel& model, PimExecutorOptions options,
      std::unordered_map<const void*, f32> amax,
      std::shared_ptr<const DeploymentImage> image);

  /// Serializes the as-programmed (golden) quantized matrices of every
  /// deployed layer under its stable name — what a device would flash.
  DeploymentImage export_image() const;

  /// Physical read-back verification: for every deployed layer, drives a
  /// deterministic INT8 probe vector through the PE arrays and compares
  /// bit-exactly against `image`'s reference matvec (plus scale/shape
  /// checks). Returns an empty string when the live arrays match the
  /// image, else a description of the first divergence — the
  /// deploy-verify gate of the zero-downtime swap.
  std::string verify_against(const DeploymentImage& image);

  /// The image this executor was deployed from (null when deployed by
  /// quantizing the model directly).
  const std::shared_ptr<const DeploymentImage>& source_image() const {
    return source_image_;
  }

  /// Calibration state (input-range table), for deploy_from_image.
  const std::unordered_map<const void*, f32>& input_amax() const {
    return input_amax_;
  }

  /// Stable names of the deployed weight layers, in deploy order.
  std::vector<std::string> layer_names() const;

 private:
  /// Clone constructor: skips calibration, reuses recorded ranges. With
  /// a non-null `image`, deploys its codes instead of quantizing.
  PimRepNetExecutor(RepNetModel& model, PimExecutorOptions options,
                    const std::unordered_map<const void*, f32>& amax,
                    std::shared_ptr<const DeploymentImage> image = nullptr);
  /// Shared forward-structure walk. In calibration mode convs run in
  /// software while input ranges are recorded; in hardware mode they run
  /// through the deployed PIM layers. Either way each conv site's output
  /// is finished by its ConvEpilogue (BN, residual, ReLU), so both modes
  /// compute the same periphery with the same code.
  ///
  /// In hardware mode an activation that several convs read becomes
  /// codes once (ActivationCodes, in the core's activation scratch, reset
  /// per forward): walk makes each stage input's, and every conv whose
  /// quantization and geometry fit reads them (ConvInput); the others
  /// quantize x themselves. Every `codes` below is null in calibration
  /// mode.
  enum class Mode { kCalibrate, kHardware };
  Tensor walk(const Tensor& images, Mode mode);
  Tensor apply_conv(Conv2d& conv, const ConvInput& in, Mode mode,
                    const ConvEpilogue& epilogue = {});
  /// apply_conv(second, apply_conv(first, in, ..), ..) for a conv whose
  /// output feeds only `second`. In hardware mode the intermediate stays
  /// in code planes: second.forward(first.forward_codes(in, .., second)).
  Tensor apply_chain(Conv2d& first, const ConvInput& in,
                     const ConvEpilogue& first_epilogue, Conv2d& second,
                     const ConvEpilogue& second_epilogue, Mode mode);
  PimConv& deployed(const Conv2d& conv);
  /// With `next` (in hardware mode, a stride-1 conv that reads the
  /// output), a final conv also writes the output's codes for `next` into
  /// `next_codes`, in the same epilogue pass as the f32 output.
  Tensor apply_sequential(Sequential& seq, const Tensor& x, Mode mode,
                          Conv2d* next = nullptr,
                          std::optional<ActivationCodes>* next_codes = nullptr);
  /// `codes`, when given, are x's codes for the block's convs to read.
  Tensor apply_residual(ResidualBlock& block, const Tensor& x,
                        const ActivationCodes* codes, Mode mode);
  Tensor apply_rep(RepModule& rep, const Tensor& x,
                   const ActivationCodes* codes, Mode mode);
  Tensor apply_classifier(const Tensor& x, Mode mode);

  void calibrate(const Dataset& calibration);
  void deploy();
  void protect_arrays();
  /// Programs every MRAM array's golden codes into the physical medium
  /// via the wear tracker; the *achieved* values land in the live cells
  /// (golden keeps the intent). No-op without a tracker.
  void program_nvm_wear(WearPath path);
  /// Tells the tracker what the live MRAM cells hold after an external
  /// disturbance (fault injection, retention drift) — keeps its
  /// read-before-write diffing honest. No-op without a tracker.
  void sync_wear_resident(i64 handle);
  f32 scale_for(const void* layer) const;

  /// Check/parity cells plus the golden (as-programmed) code image of
  /// one deployed array. The golden copy models the host-side weight
  /// image deployments are programmed from — re-fetch source for
  /// detected-uncorrectable words and ground truth for `silent`.
  struct ArrayProtection {
    std::vector<u8> weight_checks;  ///< SEC-DED words or parity bits
    std::vector<u8> index_parity;   ///< 1 even-parity bit per index cell
    std::vector<i8> golden_weights;
    std::vector<u8> golden_indices;
  };

  RepNetModel& model_;
  PimExecutorOptions options_;
  HybridCore core_;
  std::unordered_map<const void*, f32> input_amax_;
  std::unordered_map<const Conv2d*, std::unique_ptr<PimConv>> convs_;
  std::unique_ptr<PimLinear> classifier_;
  std::vector<ArrayProtection> protections_;  ///< indexed by core handle
  /// (stable name, deployed layer), in deploy-walk order.
  std::vector<std::pair<std::string, const PimMatmulLayer*>> named_layers_;
  /// Stable layer name per core handle — the wear tracker's array keys.
  std::vector<std::string> handle_names_;
  std::shared_ptr<const DeploymentImage> source_image_;
};

/// Deploys `count` independent executor replicas of one trained model —
/// each with its own HybridCore, quantized weight images and calibration
/// state — so that every serving worker thread owns a full accelerator.
/// Construction is sequential (it walks the model in software); the
/// returned replicas may then forward() concurrently. Deterministic:
/// every replica is bit-identical to a directly constructed executor.
/// `wear` (when non-empty) must hold one tracker per replica: each
/// replica programs its own physical medium, and its heals/swaps keep
/// writing through the same tracker.
std::vector<std::unique_ptr<PimRepNetExecutor>> make_executor_replicas(
    RepNetModel& model, const Dataset& calibration, i64 count,
    PimExecutorOptions options = {},
    const std::vector<std::shared_ptr<MramWearTracker>>& wear = {});

}  // namespace msh
