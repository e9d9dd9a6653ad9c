// End-to-end serving benchmark over the runtime (src/runtime): sweeps
// worker count x max batch size with a closed-loop driver (fixed number
// of outstanding requests, back-to-back) and an open-loop driver (Poisson
// arrivals at a fixed rate, the serving-systems-standard way to observe
// queueing latency and backpressure). Both sweeps run once per compute
// backend: the raw rows are the wall-clock story (the serving default),
// the modeled rows what serving costs when every batch walks the
// functional PE model. Prints a latency/throughput table per driver and
// one full ServingMetrics JSON dump.
//
// Deterministic load: the open-loop arrival trace is drawn from the
// repo's own Rng with an explicit seed. The arrival *rate* defaults to
// 1.2x the backend's measured 1-worker closed-loop rate; pass it
// explicitly to make the whole trace reproducible across hosts (CI).
//   usage: bench_serving_throughput [--smoke] [seed] [requests_per_config]
//          [rate_img_s]
// --smoke shrinks the request count for the CI perf job (artifact
// collection + sanity, not steady-state measurement).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/table.h"
#include "runtime/serving_engine.h"
#include "workloads/dataset.h"

namespace msh {
namespace {

struct LoadResult {
  f64 offered_images_per_s = 0.0;  ///< open loop only
  f64 images_per_s = 0.0;
  f64 p50_ms = 0.0;
  f64 p95_ms = 0.0;
  f64 p99_ms = 0.0;
  f64 mean_batch_rows = 0.0;
  i64 rejected = 0;
  std::string metrics_json;
};

LoadResult summarize(const ServingEngine& engine, f64 elapsed_s) {
  const MetricsSnapshot s = engine.metrics().snapshot();
  LoadResult r;
  r.images_per_s = elapsed_s > 0 ? s.completed_rows / elapsed_s : 0.0;
  r.p50_ms = s.total_latency.percentile_us(50.0) / 1e3;
  r.p95_ms = s.total_latency.percentile_us(95.0) / 1e3;
  r.p99_ms = s.total_latency.percentile_us(99.0) / 1e3;
  r.mean_batch_rows =
      s.batches > 0 ? static_cast<f64>(s.completed_rows) / s.batches : 0.0;
  r.rejected = s.rejected_requests;
  r.metrics_json = ServingMetrics::to_json(s);
  return r;
}

/// Closed loop: keep `window` requests in flight until `total` submitted.
LoadResult run_closed_loop(RepNetModel& model, const Dataset& calibration,
                           const Dataset& pool, ServingEngineOptions options,
                           i64 total, i64 window) {
  ServingEngine engine(model, calibration, options);
  const Stopwatch watch;
  std::deque<ResponseFuture> inflight;
  i64 submitted = 0;
  while (submitted < total || !inflight.empty()) {
    while (submitted < total &&
           static_cast<i64>(inflight.size()) < window) {
      const i64 at = submitted % pool.size();
      inflight.push_back(engine.submit(pool.batch_images(at, 1)));
      ++submitted;
    }
    inflight.front().get();
    inflight.pop_front();
  }
  const f64 elapsed_s = watch.elapsed_s();
  engine.shutdown();
  return summarize(engine, elapsed_s);
}

/// Open loop: Poisson arrivals at `rate_rps`; full queue => rejection,
/// exactly as a front-end load balancer would see it.
LoadResult run_open_loop(RepNetModel& model, const Dataset& calibration,
                         const Dataset& pool, ServingEngineOptions options,
                         i64 total, f64 rate_rps, Rng& rng) {
  ServingEngine engine(model, calibration, options);
  const Stopwatch watch;
  std::vector<ResponseFuture> futures;
  futures.reserve(static_cast<size_t>(total));
  f64 next_arrival_us = 0.0;
  for (i64 i = 0; i < total; ++i) {
    // Exponential interarrival; deterministic in the seed.
    next_arrival_us += -std::log(1.0 - rng.uniform()) / rate_rps * 1e6;
    while (watch.elapsed_us() < next_arrival_us) {
      // Sub-millisecond gaps: spin-wait keeps the trace faithful.
      std::this_thread::yield();
    }
    const i64 at = i % pool.size();
    futures.push_back(engine.submit(pool.batch_images(at, 1)));
  }
  for (auto& future : futures) future.get();
  const f64 elapsed_s = watch.elapsed_s();
  engine.shutdown();
  LoadResult r = summarize(engine, elapsed_s);
  r.offered_images_per_s = rate_rps;
  return r;
}

}  // namespace
}  // namespace msh

int main(int argc, char** argv) {
  using namespace msh;

  bool smoke = false;
  std::vector<char*> args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  const int nargs = static_cast<int>(args.size());
  const u64 seed = nargs > 0 ? std::strtoull(args[0], nullptr, 10) : 42;
  const i64 total =
      nargs > 1 ? std::strtoll(args[1], nullptr, 10) : (smoke ? 16 : 64);
  const f64 fixed_rate = nargs > 2 ? std::strtod(args[2], nullptr) : 0.0;
  if (total <= 0 || (nargs > 2 && fixed_rate <= 0.0)) {
    std::fprintf(
        stderr,
        "usage: bench_serving_throughput [--smoke] [seed] "
        "[requests_per_config] [rate_img_s]\n"
        "requests_per_config and rate_img_s must be >= 1\n");
    return 1;
  }

  SyntheticSpec spec;
  spec.name = "serving-load";
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

  std::printf("=== Serving throughput: %lld requests/config, seed %llu ===\n\n",
              static_cast<long long>(total),
              static_cast<unsigned long long>(seed));

  AsciiTable closed({"backend", "workers", "max batch", "images/s",
                     "speedup vs 1w", "p50 (ms)", "p95 (ms)", "p99 (ms)",
                     "mean batch"});
  AsciiTable open({"backend", "workers", "offered img/s", "served img/s",
                   "p50 (ms)", "p95 (ms)", "p99 (ms)", "rejected"});
  std::string last_json;
  for (const KernelBackend backend :
       {KernelBackend::kRaw, KernelBackend::kModeled}) {
    // --- Closed loop: workers x batch sweep -----------------------------
    f64 base_rate = 0.0;
    f64 one_worker_rate = 0.0;
    for (const i64 workers : {1L, 2L, 4L}) {
      for (const i64 batch : {1L, 8L}) {
        ServingEngineOptions options;
        options.workers = workers;
        options.queue_capacity = 256;
        options.batcher = {.max_batch_rows = batch, .max_wait_us = 200.0};
        options.executor.backend = backend;
        const LoadResult r =
            run_closed_loop(model, data.train, data.test, options, total,
                            /*window=*/workers * batch * 2);
        if (workers == 1 && batch == 1) base_rate = r.images_per_s;
        if (workers == 1)
          one_worker_rate = std::max(one_worker_rate, r.images_per_s);
        closed.add_row({to_string(backend), std::to_string(workers),
                        std::to_string(batch),
                        AsciiTable::num(r.images_per_s, 1),
                        AsciiTable::num(r.images_per_s / base_rate, 2) + "x",
                        AsciiTable::num(r.p50_ms, 2),
                        AsciiTable::num(r.p95_ms, 2),
                        AsciiTable::num(r.p99_ms, 2),
                        AsciiTable::num(r.mean_batch_rows, 2)});
      }
    }

    // --- Open loop: Poisson arrivals around the 1-worker service rate ---
    // The same arrival seed per backend: with a pinned rate both backends
    // see the identical trace.
    Rng arrival_rng(seed);
    for (const i64 workers : {1L, 2L, 4L}) {
      ServingEngineOptions options;
      options.workers = workers;
      options.queue_capacity = 32;
      options.batcher = {.max_batch_rows = 8, .max_wait_us = 500.0};
      options.executor.backend = backend;
      // Offered load ~20% above what one worker sustains: one worker must
      // queue/shed, more workers absorb it. An explicit rate pins the
      // arrival trace completely (CI reproducibility).
      const f64 rate = fixed_rate > 0.0 ? fixed_rate : one_worker_rate * 1.2;
      Rng config_rng = arrival_rng.fork();
      const LoadResult r = run_open_loop(model, data.train, data.test,
                                         options, total, rate, config_rng);
      open.add_row({to_string(backend), std::to_string(workers),
                    AsciiTable::num(r.offered_images_per_s, 1),
                    AsciiTable::num(r.images_per_s, 1),
                    AsciiTable::num(r.p50_ms, 2),
                    AsciiTable::num(r.p95_ms, 2),
                    AsciiTable::num(r.p99_ms, 2), std::to_string(r.rejected)});
      if (backend == KernelBackend::kRaw) last_json = r.metrics_json;
    }
  }
  std::printf("--- closed loop (window = 2 x workers x batch) ---\n%s\n",
              closed.render().c_str());
  std::printf("--- open loop (Poisson, queue capacity 32) ---\n%s\n",
              open.render().c_str());

  std::printf("metrics JSON (raw, 4-worker open-loop config):\n%s\n\n",
              last_json.c_str());
  std::printf(
      "shape check: closed-loop images/s grows with workers on multi-core "
      "hosts (replica-per-worker; no shared hardware state) and with batch "
      "size (dispatch amortization); open-loop p99 collapses once worker "
      "count covers the offered rate, and rejections vanish; raw rows "
      "serve one to two orders of magnitude more images/s than modeled "
      "rows.\n");
  return 0;
}
