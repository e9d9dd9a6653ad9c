// Overload benchmark for the priority-aware serving runtime: a seeded
// open-loop ramp past saturation, with a zero-downtime model swap rolled
// through mid-overload. The engine's measured capacity (closed-loop
// warm-up on this host, under whatever sanitizer is active) calibrates
// the ramp, so the trace stresses the same relative operating points
// everywhere: phase A offers 0.5x capacity, phase B offers 2x.
//
// Offered traffic is 25% interactive / 25% batch / 50% best-effort, each
// class with a deadline. Overload control must hold interactive goodput
// while the surplus is shed from the bottom of the priority order.
//
// Exit code is the acceptance gate:
//   - no request ever resolves kFailed (the swap fails nobody),
//   - the mid-ramp swap_model completes and post-swap outputs are
//     bit-identical to a fresh deploy of the same image,
//   - interactive goodput under 2x overload stays >= 90% of its
//     pre-saturation value,
//   - best-effort drops at a rate >= interactive (sheds first),
//   - the shadow oracle ran and every modeled re-run matched the served
//     logits.
//   usage: bench_serving_overload [--smoke] [seed]
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/table.h"
#include "runtime/serving_engine.h"
#include "workloads/dataset.h"

namespace msh {
namespace {

struct ClassTally {
  i64 submitted = 0;
  i64 ok = 0;
  i64 shed = 0;
  i64 rejected = 0;
  i64 timed_out = 0;
  i64 failed = 0;
  i64 dropped() const { return shed + rejected + timed_out; }
  f64 goodput() const {
    return submitted == 0 ? 0.0
                          : static_cast<f64>(ok) / static_cast<f64>(submitted);
  }
};

struct PhaseResult {
  std::array<ClassTally, kPriorityClasses> classes;
  ClassTally& cls(Priority p) { return classes[static_cast<size_t>(p)]; }
};

/// Closed-loop warm-up: measures what the engine actually sustains on
/// this host (also warms the shed policy's service-time estimate).
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

/// One open-loop Poisson phase. Class mix by arrival index: i % 4 ->
/// interactive, batch, best-effort, best-effort (exact 25/25/50 split).
PhaseResult run_phase(ServingEngine& engine, const Dataset& pool,
                      i64 total, f64 rate_rps,
                      const std::array<f64, kPriorityClasses>& deadlines_us,
                      Rng& rng, std::thread* swap_thread = nullptr,
                      std::function<void()> swap_fn = {}) {
  static constexpr Priority kMix[4] = {
      Priority::kInteractive, Priority::kBatch, Priority::kBestEffort,
      Priority::kBestEffort};
  const Stopwatch watch;
  std::vector<std::pair<Priority, ResponseFuture>> futures;
  futures.reserve(static_cast<size_t>(total));
  f64 next_arrival_us = 0.0;
  for (i64 i = 0; i < total; ++i) {
    next_arrival_us += -std::log(1.0 - rng.uniform()) / rate_rps * 1e6;
    while (watch.elapsed_us() < next_arrival_us) std::this_thread::yield();
    if (swap_thread != nullptr && i == total / 3) {
      // Launch the rolling model swap mid-overload, from another thread,
      // while arrivals keep coming.
      *swap_thread = std::thread(swap_fn);
    }
    const Priority priority = kMix[i % 4];
    SubmitOptions submit;
    submit.priority = priority;
    submit.deadline_us = deadlines_us[static_cast<size_t>(priority)];
    futures.emplace_back(
        priority, engine.submit(pool.batch_images(i % pool.size(), 1),
                                submit));
  }
  PhaseResult result;
  for (auto& [priority, future] : futures) {
    ClassTally& tally = result.cls(priority);
    ++tally.submitted;
    switch (future.get().status) {
      case RequestStatus::kOk: ++tally.ok; break;
      case RequestStatus::kShed: ++tally.shed; break;
      case RequestStatus::kRejected: ++tally.rejected; break;
      case RequestStatus::kTimedOut: ++tally.timed_out; break;
      default: ++tally.failed; break;
    }
  }
  return result;
}

bool bit_identical(const Tensor& a, const Tensor& b) {
  if (!(a.shape() == b.shape())) return false;
  for (i64 i = 0; i < a.numel(); ++i)
    if (a[i] != b[i]) return false;
  return true;
}

}  // namespace
}  // namespace msh

int main(int argc, char** argv) {
  using namespace msh;

  bool smoke = false;
  u64 seed = 42;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      seed = std::strtoull(argv[i], nullptr, 10);
    }
  }
  const i64 warmup = smoke ? 24 : 48;
  const i64 total_a = smoke ? 48 : 160;
  const i64 total_b = smoke ? 96 : 320;

  SyntheticSpec spec;
  spec.name = "serving-overload";
  spec.classes = 4;
  spec.train_per_class = 16;
  spec.test_per_class = 16;
  spec.image_size = 12;
  spec.seed = seed;
  TrainTestSplit data = make_synthetic_dataset(spec);

  BackboneConfig backbone;
  backbone.stem_channels = 8;
  backbone.stage_channels = {8, 16};
  backbone.blocks_per_stage = {1, 1};
  backbone.stage_strides = {1, 2};
  Rng model_rng(seed);
  RepNetModel model(backbone,
                    RepNetConfig{.bottleneck_divisor = 8, .min_bottleneck = 8},
                    4, model_rng);

  // Warm-up engine measures capacity; the measured engine is then reused
  // for the ramp so the service-time estimate carries over.
  ServingEngineOptions options;
  options.workers = 2;
  options.queue_capacity = 256;
  options.batcher = {.max_batch_rows = 4, .max_wait_us = 200.0};
  options.max_retries = 3;
  // Shadow oracle on every batch: each batch's worker time then includes
  // its modeled re-run, so the warm-up's measured capacity prices the
  // oracle in and the ramp below stays calibrated. (A sparse cadence
  // makes service bimodal: one modeled re-run outlasts a whole raw-speed
  // phase and its deadlines.)
  options.shadow_every_batches = 1;

  f64 capacity_rps;
  {
    ServingEngine probe(model, data.train, options);
    capacity_rps = measure_capacity_rps(probe, data.test, warmup);
  }
  const f64 svc_us = 1e6 * static_cast<f64>(options.workers) / capacity_rps;

  // Overload policy: best-effort is rate-limited to half of capacity and
  // budgeted to a quarter of the queue, so its 1x-capacity flood in
  // phase B cannot crowd out the higher classes.
  auto& best_effort = options.admission
                          .per_class[static_cast<size_t>(Priority::kBestEffort)];
  best_effort.rate_per_s = 0.5 * capacity_rps;
  best_effort.burst = 16.0;
  best_effort.queue_budget = options.queue_capacity / 4;

  const std::array<f64, kPriorityClasses> deadlines_us = {
      20.0 * svc_us,  // interactive: tight
      80.0 * svc_us,  // batch: relaxed
      40.0 * svc_us,  // best-effort
  };

  std::printf("=== Serving overload ramp: capacity %.0f req/s, phase A %.0f "
              "req/s x %lld, phase B %.0f req/s x %lld, seed %llu%s ===\n\n",
              capacity_rps, 0.5 * capacity_rps,
              static_cast<long long>(total_a), 2.0 * capacity_rps,
              static_cast<long long>(total_b),
              static_cast<unsigned long long>(seed), smoke ? " (smoke)" : "");

  ServingEngine engine(model, data.train, options);
  Rng arrival_rng(seed);
  Rng rng_a = arrival_rng.fork();
  Rng rng_b = arrival_rng.fork();

  PhaseResult phase_a = run_phase(engine, data.test, total_a,
                                  0.5 * capacity_rps, deadlines_us, rng_a);

  // The image rolled through mid-overload: a fresh deployment of the
  // same trained model, exported in the on-flash format.
  auto image = std::make_shared<DeploymentImage>(
      PimRepNetExecutor(model, data.train, options.executor).export_image());
  bool swap_ok = false;
  std::thread swap_thread;
  PhaseResult phase_b = run_phase(
      engine, data.test, total_b, 2.0 * capacity_rps, deadlines_us, rng_b,
      &swap_thread, [&] {
        // A worker only installs the incoming replica between batches, and
        // sanitizer builds stretch batch latency well past the default 5 s
        // handoff window — give each worker a generous pickup budget.
        SwapOptions swap_options;
        swap_options.worker_timeout_us = 120e6;
        swap_ok = engine.swap_model(image, swap_options);
      });
  if (swap_thread.joinable()) swap_thread.join();

  // Post-swap output check: the engine (now serving the swapped image)
  // must match a fresh standalone deploy of that image bit-for-bit.
  const Tensor probe_images = data.test.batch_images(0, 2);
  const Tensor swapped_logits = engine.submit(probe_images).get().logits;
  auto reference = PimRepNetExecutor::deploy_from_image(
      model, options.executor,
      PimRepNetExecutor(model, data.train, options.executor).input_amax(),
      image);
  const bool outputs_identical =
      !swapped_logits.empty() &&
      bit_identical(swapped_logits, reference->forward(probe_images));

  engine.shutdown();
  const MetricsSnapshot s = engine.metrics().snapshot();

  AsciiTable table({"phase", "class", "submitted", "ok", "shed", "rejected",
                    "timed out", "failed", "goodput"});
  const auto rows = [&](const char* phase, PhaseResult& r) {
    for (i64 c = 0; c < kPriorityClasses; ++c) {
      const ClassTally& t = r.classes[static_cast<size_t>(c)];
      table.add_row({phase, to_string(static_cast<Priority>(c)),
                     std::to_string(t.submitted), std::to_string(t.ok),
                     std::to_string(t.shed), std::to_string(t.rejected),
                     std::to_string(t.timed_out), std::to_string(t.failed),
                     AsciiTable::num(100.0 * t.goodput(), 1) + "%"});
    }
  };
  rows("A (0.5x)", phase_a);
  rows("B (2.0x)", phase_b);
  std::printf("%s\n", table.render().c_str());

  AsciiTable lat({"class", "completed", "p50 (ms)", "p99 (ms)"});
  for (i64 c = 0; c < kPriorityClasses; ++c) {
    const ClassCounters& cls = s.classes[static_cast<size_t>(c)];
    lat.add_row({to_string(static_cast<Priority>(c)),
                 std::to_string(cls.completed),
                 AsciiTable::num(cls.total_latency.percentile_us(50.0) / 1e3, 2),
                 AsciiTable::num(cls.total_latency.percentile_us(99.0) / 1e3, 2)});
  }
  std::printf("%s\n", lat.render().c_str());
  std::printf("swap under load: %s (%lld attempted, %lld workers promoted, "
              "%lld rollbacks); post-swap outputs bit-identical: %s\n\n",
              swap_ok ? "ok" : "FAILED",
              static_cast<long long>(s.swaps_attempted),
              static_cast<long long>(s.swap_workers_swapped),
              static_cast<long long>(s.swap_rollbacks),
              outputs_identical ? "yes" : "NO");
  std::printf("shadow oracle: %lld check(s), %lld mismatch(es)\n\n",
              static_cast<long long>(s.shadow_checks),
              static_cast<long long>(s.shadow_mismatches));
  std::printf("metrics JSON (ramp):\n%s\n\n",
              ServingMetrics::to_json(s).c_str());

  const ClassTally& int_a = phase_a.cls(Priority::kInteractive);
  const ClassTally& int_b = phase_b.cls(Priority::kInteractive);
  const ClassTally& be_b = phase_b.cls(Priority::kBestEffort);
  const i64 total_failed =
      int_a.failed + int_b.failed + be_b.failed +
      phase_a.cls(Priority::kBatch).failed +
      phase_b.cls(Priority::kBatch).failed +
      phase_a.cls(Priority::kBestEffort).failed;

  bool pass = true;
  if (total_failed != 0 || s.failed_requests != 0) {
    std::printf("FAILED: %lld requests resolved kFailed\n",
                static_cast<long long>(s.failed_requests));
    pass = false;
  }
  if (!swap_ok || !outputs_identical) {
    std::printf("FAILED: mid-ramp model swap did not complete cleanly\n");
    pass = false;
  }
  if (int_b.goodput() < 0.9 * int_a.goodput()) {
    std::printf("FAILED: interactive goodput collapsed under overload "
                "(%.1f%% vs %.1f%% pre-saturation)\n",
                100.0 * int_b.goodput(), 100.0 * int_a.goodput());
    pass = false;
  }
  const f64 be_drop =
      be_b.submitted == 0
          ? 0.0
          : static_cast<f64>(be_b.dropped()) / be_b.submitted;
  const f64 int_drop =
      int_b.submitted == 0
          ? 0.0
          : static_cast<f64>(int_b.dropped()) / int_b.submitted;
  if (be_drop < int_drop) {
    std::printf("FAILED: interactive shed before best-effort "
                "(%.1f%% vs %.1f%% dropped)\n", 100.0 * int_drop,
                100.0 * be_drop);
    pass = false;
  }
  if (s.shadow_checks == 0 || s.shadow_mismatches != 0) {
    std::printf("FAILED: shadow oracle ran %lld check(s), %lld "
                "mismatch(es)\n",
                static_cast<long long>(s.shadow_checks),
                static_cast<long long>(s.shadow_mismatches));
    pass = false;
  }
  if (!pass) return 1;

  std::printf(
      "shape check: under a 2x overload ramp the surplus is shed from "
      "best-effort first (rate limit + class budget + unmeetable-deadline "
      "shedding), interactive goodput holds within 10%% of its "
      "pre-saturation value, and a model swap rolled through mid-ramp "
      "promotes every worker without failing a single request, with "
      "post-swap outputs bit-identical to a fresh deploy of the image.\n");
  return 0;
}
