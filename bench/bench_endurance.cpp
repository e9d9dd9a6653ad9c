// Endurance benchmark: MRAM lifetime under a live continual-learning
// lane plus accelerated-aging publish campaigns.
//
// Phase 1 (lane integration): a wear-managed engine serves bit-exactly
// what an unmanaged engine serves (endurance management is transparent
// on a healthy medium), then the continual-learning lane trains and
// publishes on it — publishes must rewrite only a small delta of the
// tracked MRAM words, and every write error must be absorbed by the
// verify-retry budget, never left as a verify failure.
//
// Phase 2 (accelerated aging): with a tiny per-word endurance budget, a
// publish churn loop alternates two images until the medium wears out.
// The managed controller (read-before-write delta programming + spare-
// bank wear leveling + verify-retry) must survive >= 5x the publishes of
// a naive full-rewrite controller before the first uncorrectable loss,
// with every surviving publish still serving kOk, bit-exact replies.
// A second campaign pair churns an MRAM layer to show wear leveling
// remapping hot banks onto spares and extending lifetime on its own.
//
// Phase 3 (determinism): re-running the naive campaign with the same
// seed must reproduce the wear ledger byte-for-byte (same JSON).
//
// Every engine runs the shadow oracle on every batch: the served logits
// must equal a modeled re-run over the same (retried, remapped, pinned)
// cells.
//
//   usage: bench_endurance [--smoke] [--wear-out FILE] [seed]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/table.h"
#include "runtime/continual/continual_learner.h"
#include "workloads/task_suite.h"

namespace msh {
namespace {

/// Copy of `base` with every valid weight slot of `layer` nudged by one
/// quantization step — the smallest image change that still rewrites the
/// layer's cells and moves its logits.
DeploymentImage perturb_layer(const DeploymentImage& base,
                              const std::string& layer) {
  DeploymentImage out = base;
  const QuantizedNmMatrix& m = base.get(layer);
  std::vector<i8> values(m.raw_values().begin(), m.raw_values().end());
  std::vector<u8> indices(m.raw_indices().begin(), m.raw_indices().end());
  std::vector<u8> valid(m.raw_valid().begin(), m.raw_valid().end());
  for (size_t i = 0; i < values.size(); ++i) {
    if (valid[i])
      values[i] = static_cast<i8>(values[i] == 127 ? 126 : values[i] + 1);
  }
  out.add(layer, QuantizedNmMatrix::from_raw(
                     m.config(), m.dense_rows(), m.cols(), m.scale(),
                     std::move(values), std::move(indices),
                     std::move(valid)));
  return out;
}

struct CampaignResult {
  i64 publishes_survived = 0;  ///< successful swaps before first failure
  bool hit_cap = false;        ///< never failed within the publish cap
  bool bit_exact = true;       ///< every surviving publish served exactly
  i64 shadow_checks = 0;
  i64 shadow_mismatches = 0;
  WearCounters wear;
  std::string wear_json;
};

/// Publish churn under accelerated aging: alternate two images through
/// the kPublish swap path until a swap fails its deploy-verify gate (the
/// worn medium can no longer hold the image) or `cap` publishes land.
/// After every surviving publish, a probe request must come back kOk and
/// bit-identical to a standalone deploy of the live image.
CampaignResult run_campaign(RepNetModel& model, const TrainTestSplit& data,
                            const WearOptions& wear,
                            const std::string& mutate_layer, i64 cap) {
  ServingEngineOptions options;
  options.workers = 1;
  options.queue_capacity = 16;
  options.batcher = {.max_batch_rows = 1, .max_wait_us = 0.0};
  options.wear = wear;
  options.shadow_every_batches = 1;
  ServingEngine engine(model, data.train, options);

  auto image_a = std::make_shared<DeploymentImage>(
      engine.replica(0).export_image());
  auto image_b = std::make_shared<DeploymentImage>(
      perturb_layer(*image_a, mutate_layer));

  // Bit-exactness references: ideal (wear-free) deployments of the two
  // images with the engine's own calibration.
  const Tensor probe = data.test.batch_images(0, 1);
  const auto amax = engine.replica(0).input_amax();
  const PimExecutorOptions plain = options.executor;
  const Tensor ref_a =
      PimRepNetExecutor::deploy_from_image(model, plain, amax, image_a)
          ->forward(probe);
  const Tensor ref_b =
      PimRepNetExecutor::deploy_from_image(model, plain, amax, image_b)
          ->forward(probe);

  SwapOptions swap;
  swap.wear_path = WearPath::kPublish;
  swap.worker_timeout_us = 120e6;  // sanitizer headroom

  CampaignResult result;
  for (i64 i = 0; i < cap; ++i) {
    const bool to_b = (i % 2 == 0);
    if (!engine.swap_model(to_b ? image_b : image_a, swap)) break;
    ++result.publishes_survived;
    const InferenceResponse response = engine.submit(probe).get();
    if (response.status != RequestStatus::kOk ||
        max_abs_diff(response.logits, to_b ? ref_b : ref_a) != 0.0f) {
      result.bit_exact = false;
      break;
    }
  }
  result.hit_cap = result.publishes_survived == cap;
  engine.shutdown();  // joins the workers: every shadow check has run
  const MetricsSnapshot snapshot = engine.metrics().snapshot();
  result.shadow_checks = snapshot.shadow_checks;
  result.shadow_mismatches = snapshot.shadow_mismatches;
  result.wear = snapshot.wear;
  result.wear_json = ServingMetrics::wear_to_json(result.wear);
  return result;
}

void add_campaign_row(AsciiTable& table, const char* name,
                      const CampaignResult& r) {
  table.add_row({name, std::to_string(r.publishes_survived),
                 r.hit_cap ? "cap" : "worn out",
                 std::to_string(r.wear.totals.broken_words),
                 std::to_string(r.wear.totals.banks_remapped),
                 AsciiTable::num(r.wear.totals.delta_savings_ratio(), 3),
                 r.bit_exact ? "yes" : "NO"});
}

}  // namespace
}  // namespace msh

int main(int argc, char** argv) {
  using namespace msh;

  bool smoke = false;
  u64 seed = 42;
  std::string wear_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--wear-out") == 0 && i + 1 < argc) {
      wear_out = argv[++i];
    } else {
      seed = std::strtoull(argv[i], nullptr, 10);
    }
  }
  const i64 max_rounds = smoke ? 5 : 8;
  const u64 aging_endurance = smoke ? 8 : 16;

  SyntheticSpec served;
  served.name = "endurance";
  served.classes = 4;
  served.train_per_class = 16;
  served.test_per_class = 12;
  served.image_size = 12;
  served.seed = seed;
  TrainTestSplit data = make_synthetic_dataset(served);
  SyntheticSpec adapt_spec = adaptation_task_spec(served, seed + 300);
  adapt_spec.train_per_class = 20;

  BackboneConfig backbone;
  backbone.stem_channels = 8;
  backbone.stage_channels = {8, 16};
  backbone.blocks_per_stage = {1, 1};
  backbone.stage_strides = {1, 2};
  const RepNetConfig rep_cfg{.bottleneck_divisor = 8, .min_bottleneck = 8};
  Rng model_rng(seed);
  RepNetModel model(backbone, rep_cfg, served.classes, model_rng);
  model.backbone().set_trainable(false);  // on-device learning setup
  Rng trainer_rng(seed + 1);
  RepNetModel trainer_model(backbone, rep_cfg, served.classes, trainer_rng);

  std::printf("=== Endurance: %lld lane rounds, aging endurance %llu "
              "writes/word, seed %llu%s ===\n\n",
              static_cast<long long>(max_rounds),
              static_cast<unsigned long long>(aging_endurance),
              static_cast<unsigned long long>(seed),
              smoke ? " (smoke)" : "");

  // ---- Phase 1: wear management under a live continual lane ----------
  // Device-realistic wear (huge endurance, a real write-error rate): the
  // tracker must be transparent — identical replies — while absorbing
  // every write error inside the retry budget.
  ServingEngineOptions managed_options;
  managed_options.workers = 2;
  managed_options.queue_capacity = 64;
  managed_options.batcher = {.max_batch_rows = 4, .max_wait_us = 200.0};
  managed_options.wear.enabled = true;
  managed_options.wear.endurance_writes = 1'000'000'000ull;
  managed_options.wear.device.write_error_rate = 2e-3;
  managed_options.wear.seed = seed;
  managed_options.shadow_every_batches = 1;
  ServingEngine engine(model, data.train, managed_options);

  bool parity_exact = true;
  {
    ServingEngineOptions ideal_options = managed_options;
    ideal_options.wear = WearOptions{};  // no endurance modeling
    ServingEngine ideal(model, data.train, ideal_options);
    for (i64 i = 0; i < 4; ++i) {
      const Tensor probe = data.test.batch_images(i, 1);
      const InferenceResponse managed = engine.submit(probe).get();
      const InferenceResponse reference = ideal.submit(probe).get();
      if (managed.status != RequestStatus::kOk ||
          reference.status != RequestStatus::kOk ||
          max_abs_diff(managed.logits, reference.logits) != 0.0f)
        parity_exact = false;
    }
    ideal.shutdown();
  }

  ContinualLearnerOptions lane_options;
  lane_options.seed = seed;
  lane_options.batch = 8;
  lane_options.steps_per_round = 6;
  lane_options.max_rounds = max_rounds;
  lane_options.rep_lr = 0.02f;
  lane_options.head_lr = 0.15f;
  lane_options.min_accuracy_gain = 0.01;
  lane_options.rollback_margin = 0.05;
  lane_options.holdout_batch = 16;
  lane_options.swap.worker_timeout_us = 120e6;  // sanitizer headroom
  ContinualLearner learner(engine, trainer_model,
                           TaskStream(make_synthetic_dataset(adapt_spec),
                                      seed + 7),
                           data.train, lane_options);
  learner.start();
  while (learner.rounds() < max_rounds)
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  learner.stop();
  engine.shutdown();

  const MetricsSnapshot lane_snapshot = engine.metrics().snapshot();
  const WearCounters& lane_wear = lane_snapshot.wear;
  const i64 publishes = lane_snapshot.training_lane.publishes;
  const i64 publish_writes = lane_wear.totals.words_written_by_path[
      static_cast<size_t>(WearPath::kPublish)];
  // Fraction of the fleet's tracked MRAM words a publish rewrites; a
  // naive full-rewrite controller would sit at 1.0.
  const f64 publish_rewrite_fraction =
      publishes > 0 && lane_wear.totals.words_tracked > 0
          ? static_cast<f64>(publish_writes) /
                (static_cast<f64>(publishes) *
                 static_cast<f64>(lane_wear.totals.words_tracked))
          : 1.0;

  AsciiTable lane_table({"lane metric", "value"});
  lane_table.add_row({"publishes", std::to_string(publishes)});
  lane_table.add_row(
      {"MRAM words tracked",
       std::to_string(lane_wear.totals.words_tracked)});
  lane_table.add_row({"publish-path words written",
                      std::to_string(publish_writes)});
  lane_table.add_row({"publish rewrite fraction",
                      AsciiTable::num(publish_rewrite_fraction, 4)});
  lane_table.add_row({"delta savings ratio",
                      AsciiTable::num(
                          lane_wear.totals.delta_savings_ratio(), 3)});
  lane_table.add_row({"write retries",
                      std::to_string(lane_wear.totals.retries)});
  lane_table.add_row({"verify failures",
                      std::to_string(lane_wear.totals.verify_failures)});
  lane_table.add_row({"broken words",
                      std::to_string(lane_wear.totals.broken_words)});
  std::printf("%s\n", lane_table.render().c_str());

  // ---- Phase 2: accelerated-aging publish campaigns ------------------
  WearOptions naive;
  naive.enabled = true;
  naive.endurance_writes = aging_endurance;
  naive.read_before_write = false;  // full rewrite on every publish
  naive.spare_banks = 0;
  naive.device.write_error_rate = 0.0;
  naive.seed = seed;
  WearOptions managed = naive;
  managed.read_before_write = true;
  managed.spare_banks = 2;

  // Image churn on an SRAM layer: the publishes carry real model deltas,
  // but none of them *needs* MRAM rewrites — exactly the continual-lane
  // shape. The naive controller burns the whole MRAM span anyway.
  const CampaignResult naive_run =
      run_campaign(model, data, naive, "classifier", 1000);
  const i64 lifetime_cap = 5 * std::max<i64>(1, naive_run.publishes_survived);
  const CampaignResult managed_run =
      run_campaign(model, data, managed, "classifier", lifetime_cap);
  const f64 lifetime_ratio =
      static_cast<f64>(managed_run.publishes_survived) /
      static_cast<f64>(std::max<i64>(1, naive_run.publishes_survived));

  // Leveling in isolation: churn an MRAM layer (every publish must
  // rewrite its words) with delta programming on in both configs — only
  // the spare banks differ, so any lifetime gap is wear leveling's.
  WearOptions no_spares = managed;
  no_spares.spare_banks = 0;
  WearOptions leveled = managed;
  leveled.spare_banks = 4;
  const i64 leveling_cap = static_cast<i64>(aging_endurance) * 6;
  const CampaignResult base_run =
      run_campaign(model, data, no_spares, "stem.0", leveling_cap);
  const CampaignResult leveled_run =
      run_campaign(model, data, leveled, "stem.0", leveling_cap);

  AsciiTable aging({"campaign", "publishes", "end", "broken words",
                    "banks remapped", "delta savings", "bit-exact"});
  add_campaign_row(aging, "naive full rewrite", naive_run);
  add_campaign_row(aging, "managed (delta+level+retry)", managed_run);
  add_campaign_row(aging, "MRAM churn, no spares", base_run);
  add_campaign_row(aging, "MRAM churn, 4 spares", leveled_run);
  std::printf("%s\n", aging.render().c_str());
  std::printf("lifetime extension (managed vs naive): %.1fx%s\n\n",
              lifetime_ratio, managed_run.hit_cap ? " (capped)" : "");

  // ---- Phase 3: same-seed determinism --------------------------------
  const CampaignResult replay =
      run_campaign(model, data, naive, "classifier", 1000);
  const bool deterministic =
      replay.publishes_survived == naive_run.publishes_survived &&
      replay.wear_json == naive_run.wear_json;

  std::printf("lane wear JSON:\n%s\n\n",
              ServingMetrics::wear_to_json(lane_wear).c_str());
  if (!wear_out.empty()) {
    std::ofstream out(wear_out);
    out << ServingMetrics::wear_to_json(lane_wear) << "\n";
    std::printf("wear JSON written to %s\n\n", wear_out.c_str());
  }

  i64 shadow_checks = lane_snapshot.shadow_checks;
  i64 shadow_mismatches = lane_snapshot.shadow_mismatches;
  for (const CampaignResult* r :
       {&naive_run, &managed_run, &base_run, &leveled_run, &replay}) {
    shadow_checks += r->shadow_checks;
    shadow_mismatches += r->shadow_mismatches;
  }
  std::printf("shadow oracle: %lld check(s), %lld mismatch(es)\n\n",
              static_cast<long long>(shadow_checks),
              static_cast<long long>(shadow_mismatches));

  bool pass = true;
  if (shadow_checks == 0 || shadow_mismatches != 0) {
    std::printf("FAILED: shadow oracle ran %lld check(s), %lld "
                "mismatch(es)\n",
                static_cast<long long>(shadow_checks),
                static_cast<long long>(shadow_mismatches));
    pass = false;
  }
  if (!parity_exact) {
    std::printf("FAILED: wear-managed engine is not bit-exact with the "
                "unmanaged engine on a healthy medium\n");
    pass = false;
  }
  if (publishes < 1) {
    std::printf("FAILED: the continual lane published nothing\n");
    pass = false;
  }
  if (publish_rewrite_fraction >= 0.20) {
    std::printf("FAILED: lane publishes rewrote %.1f%% of the tracked "
                "MRAM words (budget < 20%%)\n",
                100.0 * publish_rewrite_fraction);
    pass = false;
  }
  if (lane_wear.totals.retries <= 0 ||
      lane_wear.totals.verify_failures != 0 ||
      lane_wear.totals.broken_words != 0) {
    std::printf("FAILED: verify-retry accounting is off (retries %lld, "
                "verify failures %lld, broken %lld)\n",
                static_cast<long long>(lane_wear.totals.retries),
                static_cast<long long>(lane_wear.totals.verify_failures),
                static_cast<long long>(lane_wear.totals.broken_words));
    pass = false;
  }
  if (naive_run.hit_cap || naive_run.publishes_survived < 1) {
    std::printf("FAILED: the naive campaign never wore out (%lld "
                "publishes)\n",
                static_cast<long long>(naive_run.publishes_survived));
    pass = false;
  }
  if (!managed_run.hit_cap || lifetime_ratio < 5.0) {
    std::printf("FAILED: managed lifetime %.1fx naive (need >= 5x)\n",
                lifetime_ratio);
    pass = false;
  }
  if (!naive_run.bit_exact || !managed_run.bit_exact ||
      !base_run.bit_exact || !leveled_run.bit_exact) {
    std::printf("FAILED: a surviving publish served a wrong or failed "
                "reply\n");
    pass = false;
  }
  if (leveled_run.wear.totals.banks_remapped <= 0 ||
      leveled_run.publishes_survived < 2 * base_run.publishes_survived) {
    std::printf("FAILED: wear leveling did not extend lifetime (%lld vs "
                "%lld publishes, %lld remaps)\n",
                static_cast<long long>(leveled_run.publishes_survived),
                static_cast<long long>(base_run.publishes_survived),
                static_cast<long long>(
                    leveled_run.wear.totals.banks_remapped));
    pass = false;
  }
  if (!deterministic) {
    std::printf("FAILED: same-seed naive campaign replay diverged "
                "(%lld vs %lld publishes, wear JSON %s)\n",
                static_cast<long long>(replay.publishes_survived),
                static_cast<long long>(naive_run.publishes_survived),
                replay.wear_json == naive_run.wear_json ? "equal"
                                                        : "differs");
    pass = false;
  }
  if (!pass) return 1;

  std::printf(
      "shape check: endurance management is transparent on a healthy "
      "medium (bit-exact replies, %lld retries absorbed), lane publishes "
      "rewrite %.2f%% of the MRAM span, and under accelerated aging the "
      "managed controller survives %.1fx the naive full-rewrite lifetime "
      "(wear leveling alone: %lld -> %lld publishes, %lld remaps) with "
      "byte-identical same-seed wear ledgers.\n",
      static_cast<long long>(lane_wear.totals.retries),
      100.0 * publish_rewrite_fraction, lifetime_ratio,
      static_cast<long long>(base_run.publishes_survived),
      static_cast<long long>(leveled_run.publishes_survived),
      static_cast<long long>(leveled_run.wear.totals.banks_remapped));
  return 0;
}
