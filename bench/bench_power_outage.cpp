// Power-outage storm benchmark: a serving engine with a live
// continual-learning lane rides out a seeded schedule of power
// interruptions. Every outage scrambles the volatile SRAM arrays and
// drifts the MRAM cells (retention relaxation over the dark interval);
// recovery cold-boots from the durable store — newest intact snapshot,
// journal-replayed learner checkpoint, warm-restart with the same
// verify-then-promote gate as a model swap — and the lane resumes from
// its checkpoint. One publish is deliberately torn mid-write (power died
// during the lane's snapshot) to prove the loader rolls back past it.
//
// Exit code is the acceptance gate:
//   - every outage recovers, onto exactly the tracked durable
//     generation, within the recovery-time budget,
//   - zero corrupted responses: every kOk reply is bit-identical to a
//     reference executor of some published generation,
//   - the torn publish is rolled past (never served, never booted),
//   - availability >= 99% outside the outage windows (power-loss
//     victims excluded; nothing else may fail),
//   - the lane adapts across the storm (>= 1 gated publish),
//   - the shadow oracle ran and every modeled re-run matched the served
//     logits, across outages and warm restarts, and
//   - the whole scenario is same-seed deterministic: a second run
//     produces byte-identical durable state and identical lane counters.
//   usage: bench_power_outage [--smoke] [seed]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/table.h"
#include "runtime/continual/continual_learner.h"
#include "runtime/recovery/outage_injector.h"
#include "runtime/recovery/recovery_manager.h"
#include "workloads/task_suite.h"

namespace msh {
namespace {

/// Closed-loop warm-up: what the engine actually sustains on this host
/// (and under whatever sanitizer is active).
f64 measure_capacity_rps(ServingEngine& engine, const Dataset& pool,
                         i64 total) {
  const Stopwatch watch;
  std::deque<ResponseFuture> inflight;
  i64 submitted = 0, done = 0;
  const size_t window = static_cast<size_t>(2 * engine.workers());
  while (done < total) {
    while (submitted < total && inflight.size() < window) {
      inflight.push_back(
          engine.submit(pool.batch_images(submitted % pool.size(), 1)));
      ++submitted;
    }
    inflight.front().get();
    inflight.pop_front();
    ++done;
  }
  return static_cast<f64>(total) / (watch.elapsed_us() / 1e6);
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

struct ScenarioResult {
  std::string error;  ///< empty when the scenario itself ran clean
  // Traffic.
  i64 submitted = 0;
  i64 ok = 0;
  i64 power_loss = 0;
  i64 other_bad = 0;   ///< rejected/failed/shed/timed out (none allowed)
  i64 corrupted = 0;   ///< kOk replies matching no published generation
  i64 shadow_checks = 0;
  i64 shadow_mismatches = 0;
  // Outage lifecycle.
  i64 outages = 0;
  i64 recoveries = 0;
  i64 workers_warm = 0;
  i64 workers_cold = 0;
  i64 torn_rollbacks = 0;  ///< recoveries that skipped torn snapshots
  bool generations_match = true;
  bool within_rto = true;
  f64 max_rto_us = 0.0;
  i64 sram_cells_restored = 0;
  i64 ecc_corrected = 0;
  i64 ecc_refetched = 0;
  // Lane.
  i64 rounds = 0;
  i64 steps = 0;
  i64 publishes = 0;
  u64 final_generation = 0;
  // Determinism evidence: every durable file, byte for byte.
  std::map<std::string, std::string> durable_files;
  std::string metrics_json;

  f64 availability() const {
    const i64 offered = submitted - power_loss;
    return offered <= 0 ? 0.0
                        : static_cast<f64>(ok) / static_cast<f64>(offered);
  }
};

struct ScenarioConfig {
  u64 seed = 42;
  bool smoke = false;
  i64 pre_rounds = 4;    ///< lane rounds before the storm
  i64 outages = 4;       ///< scheduled interruptions
  i64 total_requests = 400;
  f64 horizon_us = 12e6;
  f64 rto_budget_us = 120e6;    ///< generous: TSan stretches wall time
  f64 retention_tau_s = 2000.0; ///< short tau so outages actually drift
};

ScenarioResult run_scenario(const ScenarioConfig& config,
                            const std::string& dir) {
  const u64 seed = config.seed;
  ScenarioResult result;
  std::filesystem::remove_all(dir);

  // Served task + drifted personalization, same shapes as the
  // train-while-serve bench.
  SyntheticSpec served;
  served.name = "power-outage";
  served.classes = 4;
  served.train_per_class = 16;
  served.test_per_class = 12;
  served.image_size = 12;
  served.seed = seed;
  TrainTestSplit data = make_synthetic_dataset(served);
  SyntheticSpec adapt_spec = adaptation_task_spec(served, seed + 300);
  adapt_spec.train_per_class = 20;
  TrainTestSplit adapt = make_synthetic_dataset(adapt_spec);

  BackboneConfig backbone;
  backbone.stem_channels = 8;
  backbone.stage_channels = {8, 16};
  backbone.blocks_per_stage = {1, 1};
  backbone.stage_strides = {1, 2};
  const RepNetConfig rep_cfg{.bottleneck_divisor = 8, .min_bottleneck = 8};
  Rng model_rng(seed);
  RepNetModel model(backbone, rep_cfg, served.classes, model_rng);
  model.backbone().set_trainable(false);
  Rng trainer_rng(seed + 1);
  RepNetModel trainer_model(backbone, rep_cfg, served.classes, trainer_rng);

  ServingEngineOptions options;
  options.workers = 2;
  options.queue_capacity = 256;
  options.batcher = {.max_batch_rows = 4, .max_wait_us = 200.0};
  options.executor.ecc = EccMode::kSecDed;  // scrub repairs the drift
  // Shadow oracle: re-run every 4th batch on the modeled kernels over the
  // same cells, including those a warm restart brought back.
  options.shadow_every_batches = 4;

  // Durable store, seeded with the factory boot image (generation 1).
  DurableState durable(dir);
  u64 gen = 1;
  std::shared_ptr<const DeploymentImage> newest_durable;
  std::unordered_map<const void*, f32> amax;
  {
    PimRepNetExecutor probe(model, data.train, options.executor);
    amax = probe.input_amax();
    auto boot = std::make_shared<DeploymentImage>(probe.export_image());
    boot->set_generation(gen);
    durable.publish_image(*boot);
    newest_durable = boot;
  }

  // Bit-exactness references: one standalone executor per published
  // generation. A kOk reply must match one of them exactly.
  struct Reference {
    u64 generation;
    std::unique_ptr<PimRepNetExecutor> exec;
    std::map<i64, Tensor> cache;  ///< pool index -> reference logits
  };
  std::vector<Reference> references;
  const Dataset& pool = adapt.test;
  auto add_reference = [&](std::shared_ptr<const DeploymentImage> image) {
    references.push_back(
        {image->generation(),
         PimRepNetExecutor::deploy_from_image(model, options.executor, amax,
                                              std::move(image)),
         {}});
  };
  add_reference(newest_durable);
  auto matches_reference = [&](i64 pool_idx, const Tensor& logits) {
    // Newest generation first: steady state matches on the first probe.
    for (auto it = references.rbegin(); it != references.rend(); ++it) {
      auto cached = it->cache.find(pool_idx);
      if (cached == it->cache.end())
        cached = it->cache
                     .emplace(pool_idx,
                              it->exec->forward(pool.batch_images(pool_idx, 1)))
                     .first;
      if (max_abs_diff(logits, cached->second) == 0.0f) return true;
    }
    return false;
  };

  ServingEngine engine(model, data.train, options);
  RecoveryManager manager(durable);

  ContinualLearnerOptions lane;
  lane.seed = seed;
  lane.batch = 8;
  lane.steps_per_round = 6;
  lane.rep_lr = 0.02f;
  lane.head_lr = 0.15f;
  lane.min_accuracy_gain = 0.01;
  lane.rollback_margin = 0.05;
  lane.holdout_batch = 16;
  lane.swap.worker_timeout_us = 120e6;  // sanitizer headroom
  auto fresh_stream = [&] {
    return TaskStream(make_synthetic_dataset(adapt_spec), seed + 7);
  };
  auto learner = std::make_unique<ContinualLearner>(
      engine, trainer_model, fresh_stream(), data.train, lane);

  // After every lane round: publish any gate-passing image to the
  // durable store (next generation) and journal a checkpoint — the
  // crash-consistency points an outage can land between.
  std::shared_ptr<const DeploymentImage> last_seen_publish;
  auto finish_round = [&](ContinualLearner& lr) {
    if (lr.last_published() != nullptr &&
        lr.last_published() != last_seen_publish) {
      last_seen_publish = lr.last_published();
      ++gen;
      auto copy = std::make_shared<DeploymentImage>(*last_seen_publish);
      copy->set_generation(gen);
      durable.publish_image(*copy);
      newest_durable = copy;
      add_reference(copy);
    }
    durable.append_checkpoint(lr.checkpoint(gen));
  };

  for (i64 r = 0; r < config.pre_rounds; ++r) {
    learner->run_round();
    finish_round(*learner);
  }

  // The storm. The injector fires engine.power_fail at deterministic
  // points of this loop's control flow; recovery is synchronous, so no
  // request is ever submitted into a dark engine.
  OutageScheduleOptions sched;
  sched.seed = seed + 1000;
  sched.outages = config.outages;
  sched.horizon_us = config.horizon_us;
  sched.min_gap_us = 1e6;
  sched.min_outage_s = 2.0;
  sched.max_outage_s = 20.0;
  OutageInjector injector(engine, make_outage_schedule(sched),
                          config.retention_tau_s);

  f64 capacity_rps;
  {
    ServingEngine probe_engine(model, data.train, options);
    capacity_rps =
        measure_capacity_rps(probe_engine, pool, config.smoke ? 24 : 48);
  }
  const f64 rate_rps = std::max(5.0, 0.25 * capacity_rps);

  struct Sent {
    i64 pool_idx;
    ResponseFuture future;
  };
  std::vector<Sent> sent;
  sent.reserve(static_cast<size_t>(config.total_requests));
  Rng arrivals(seed + 13);
  f64 next_arrival_us = 0.0;
  const Stopwatch clock;

  while (injector.remaining() > 0 ||
         static_cast<i64>(sent.size()) < config.total_requests) {
    if (injector.poll(clock.elapsed_us())) {
      ++result.outages;
      const RecoveryReport recovery =
          manager.recover(engine, {.rto_budget_us = config.rto_budget_us});
      if (!recovery.ok) {
        result.error = "recovery failed after outage " +
                       std::to_string(result.outages) + ": " +
                       recovery.error;
        break;
      }
      ++result.recoveries;
      result.workers_warm += recovery.engine.workers_warm;
      result.workers_cold += recovery.engine.workers_cold;
      result.sram_cells_restored += recovery.engine.sram_cells_restored;
      result.ecc_corrected += recovery.engine.ecc_corrected;
      result.ecc_refetched += recovery.engine.ecc_refetched;
      result.max_rto_us = std::max(result.max_rto_us, recovery.rto_us);
      result.within_rto &= recovery.within_rto_budget;
      if (recovery.snapshots_skipped > 0) ++result.torn_rollbacks;
      if (recovery.image_generation != gen || !recovery.booted_from_image)
        result.generations_match = false;
      // The lane died with the power: rebuild it from the journal's last
      // intact checkpoint (fresh stream at the original seed; the
      // learner fast-forwards it) and run one post-recovery round.
      learner.reset();
      ContinualLearnerOptions resumed = lane;
      resumed.resume = recovery.checkpoint;
      learner = std::make_unique<ContinualLearner>(
          engine, trainer_model, fresh_stream(), data.train, resumed);
      learner->run_round();
      finish_round(*learner);
      if (result.recoveries == 1) {
        // Tear the lane's next snapshot publish mid-write: generation
        // gen+1 lands half-written in the durable dir (no atomic rename
        // on this medium). The engine never served it; the next recovery
        // must roll past it back to generation `gen`.
        DeploymentImage torn = *newest_durable;
        torn.set_generation(gen + 1);
        const i64 cut =
            static_cast<i64>(torn.serialize().size()) / 2;
        durable.publish_image(torn, DurableState::TornMode::kPartialPublish,
                              cut);
      }
      continue;
    }
    if (static_cast<i64>(sent.size()) < config.total_requests) {
      next_arrival_us +=
          -std::log(1.0 - arrivals.uniform()) / rate_rps * 1e6;
      while (clock.elapsed_us() < next_arrival_us) std::this_thread::yield();
      const i64 idx = static_cast<i64>(sent.size()) % pool.size();
      sent.push_back({idx, engine.submit(pool.batch_images(idx, 1))});
    } else {
      // Traffic done; idle forward to the remaining scheduled outages.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  // Harvest. Power-loss victims are the outage windows' cost; anything
  // else but kOk is a real failure.
  for (auto& s : sent) {
    const InferenceResponse response = s.future.get();
    ++result.submitted;
    switch (response.status) {
      case RequestStatus::kOk:
        ++result.ok;
        if (!matches_reference(s.pool_idx, response.logits))
          ++result.corrupted;
        break;
      case RequestStatus::kPowerLoss:
        ++result.power_loss;
        break;
      default:
        ++result.other_bad;
        break;
    }
  }

  result.rounds = learner->rounds();
  result.steps = learner->steps();
  result.publishes = learner->publishes();
  result.final_generation = gen;
  learner.reset();
  engine.shutdown();
  result.metrics_json = engine.metrics_json();
  const MetricsSnapshot snapshot = engine.metrics().snapshot();
  result.shadow_checks = snapshot.shadow_checks;
  result.shadow_mismatches = snapshot.shadow_mismatches;

  for (const auto& entry : std::filesystem::directory_iterator(dir))
    result.durable_files[entry.path().filename().string()] =
        file_bytes(entry.path().string());
  return result;
}

}  // namespace
}  // namespace msh

int main(int argc, char** argv) {
  using namespace msh;

  ScenarioConfig config;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      config.smoke = true;
    } else {
      config.seed = std::strtoull(argv[i], nullptr, 10);
    }
  }
  if (config.smoke) {
    config.pre_rounds = 4;
    config.outages = 2;
    config.total_requests = 120;
    config.horizon_us = 5e6;
  }

  const std::string base =
      std::filesystem::temp_directory_path().string() + "/msh_power_outage";
  std::printf("=== Power-outage storm: %lld outages over %.0f s, %lld "
              "requests, %lld pre-storm lane rounds, seed %llu%s ===\n\n",
              static_cast<long long>(config.outages),
              config.horizon_us / 1e6,
              static_cast<long long>(config.total_requests),
              static_cast<long long>(config.pre_rounds),
              static_cast<unsigned long long>(config.seed),
              config.smoke ? " (smoke)" : "");

  const ScenarioResult first = run_scenario(config, base + "_a");
  // Same seed, fresh directory: the recovery-determinism gate.
  const ScenarioResult second = run_scenario(config, base + "_b");

  AsciiTable table({"metric", "run A", "run B"});
  const auto row = [&](const char* name, auto a, auto b) {
    table.add_row({name, std::to_string(a), std::to_string(b)});
  };
  row("submitted", first.submitted, second.submitted);
  row("ok", first.ok, second.ok);
  row("power loss (outage victims)", first.power_loss, second.power_loss);
  row("other failures", first.other_bad, second.other_bad);
  row("corrupted responses", first.corrupted, second.corrupted);
  row("shadow checks", first.shadow_checks, second.shadow_checks);
  row("shadow mismatches", first.shadow_mismatches,
      second.shadow_mismatches);
  row("outages", first.outages, second.outages);
  row("recoveries", first.recoveries, second.recoveries);
  row("workers warm", first.workers_warm, second.workers_warm);
  row("workers cold", first.workers_cold, second.workers_cold);
  row("SRAM cells restored", first.sram_cells_restored,
      second.sram_cells_restored);
  row("ECC corrected (drift)", first.ecc_corrected, second.ecc_corrected);
  row("ECC refetched", first.ecc_refetched, second.ecc_refetched);
  row("torn-publish rollbacks", first.torn_rollbacks,
      second.torn_rollbacks);
  row("lane rounds", first.rounds, second.rounds);
  row("lane publishes", first.publishes, second.publishes);
  row("final generation", first.final_generation, second.final_generation);
  table.add_row({"availability (ex-outage)",
                 AsciiTable::num(100.0 * first.availability(), 2) + "%",
                 AsciiTable::num(100.0 * second.availability(), 2) + "%"});
  table.add_row({"max RTO (ms)", AsciiTable::num(first.max_rto_us / 1e3, 1),
                 AsciiTable::num(second.max_rto_us / 1e3, 1)});
  std::printf("%s\n", table.render().c_str());
  std::printf("metrics JSON (run A):\n%s\n\n", first.metrics_json.c_str());

  bool pass = true;
  for (const auto* run : {&first, &second}) {
    if (!run->error.empty()) {
      std::printf("FAILED: %s\n", run->error.c_str());
      pass = false;
    }
  }
  if (pass) {
    if (first.outages != config.outages ||
        first.recoveries != config.outages) {
      std::printf("FAILED: %lld outages fired, %lld recovered (wanted "
                  "%lld)\n", static_cast<long long>(first.outages),
                  static_cast<long long>(first.recoveries),
                  static_cast<long long>(config.outages));
      pass = false;
    }
    if (!first.generations_match || !second.generations_match) {
      std::printf("FAILED: a recovery booted the wrong durable "
                  "generation\n");
      pass = false;
    }
    if (!first.within_rto || !second.within_rto) {
      std::printf("FAILED: recovery exceeded the %.0f s RTO budget (max "
                  "%.1f s)\n", config.rto_budget_us / 1e6,
                  std::max(first.max_rto_us, second.max_rto_us) / 1e6);
      pass = false;
    }
    if (first.torn_rollbacks < 1) {
      std::printf("FAILED: the torn publish was never rolled past\n");
      pass = false;
    }
    if (first.corrupted != 0 || second.corrupted != 0) {
      std::printf("FAILED: %lld corrupted response(s) — a served reply "
                  "matched no published generation\n",
                  static_cast<long long>(first.corrupted +
                                         second.corrupted));
      pass = false;
    }
    if (first.other_bad != 0 || first.availability() < 0.99) {
      std::printf("FAILED: availability %.2f%% outside outage windows "
                  "(%lld non-outage failures)\n",
                  100.0 * first.availability(),
                  static_cast<long long>(first.other_bad));
      pass = false;
    }
    if (first.publishes < 1) {
      std::printf("FAILED: the lane never published across the storm\n");
      pass = false;
    }
    for (const auto* run : {&first, &second}) {
      if (run->shadow_checks == 0 || run->shadow_mismatches != 0) {
        std::printf("FAILED: shadow oracle ran %lld check(s), %lld "
                    "mismatch(es)\n",
                    static_cast<long long>(run->shadow_checks),
                    static_cast<long long>(run->shadow_mismatches));
        pass = false;
      }
    }
    // Recovery determinism: both runs must leave byte-identical durable
    // state and identical lane trajectories.
    if (first.durable_files != second.durable_files) {
      std::printf("FAILED: durable state differs between same-seed runs "
                  "(%zu vs %zu files)\n", first.durable_files.size(),
                  second.durable_files.size());
      for (const auto& [name, bytes] : first.durable_files) {
        const auto other = second.durable_files.find(name);
        if (other == second.durable_files.end())
          std::printf("  only in run A: %s\n", name.c_str());
        else if (other->second != bytes)
          std::printf("  differs: %s\n", name.c_str());
      }
      for (const auto& [name, bytes] : second.durable_files)
        if (first.durable_files.find(name) == first.durable_files.end())
          std::printf("  only in run B: %s\n", name.c_str());
      pass = false;
    }
    if (first.rounds != second.rounds || first.steps != second.steps ||
        first.publishes != second.publishes ||
        first.final_generation != second.final_generation) {
      std::printf("FAILED: lane trajectory diverged between same-seed "
                  "runs\n");
      pass = false;
    }
  }
  if (!pass) return 1;

  std::printf(
      "shape check: %lld power interruptions each scramble the SRAM "
      "arrays and drift the MRAM cells; recovery boots from the newest "
      "intact durable snapshot (rolling past the torn publish), replays "
      "the learner journal, warm-restarts with verify-then-promote "
      "(%lld warm / %lld cold worker recoveries), and serves on "
      "bit-exactly — zero corrupted responses, %.2f%% availability "
      "outside the outage windows, and byte-identical durable state "
      "across same-seed runs.\n",
      static_cast<long long>(first.outages),
      static_cast<long long>(first.workers_warm),
      static_cast<long long>(first.workers_cold),
      100.0 * first.availability());
  return 0;
}
