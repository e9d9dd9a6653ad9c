// Shared pieces of the repository benchmark: command options, the metric
// table that becomes the result line, attempt/failure accounting, an
// in-memory span recorder, the fixture every workload deploys, and the
// workload phases.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "deploy/pim_executor.h"
#include "repnet/sparsify.h"
#include "runtime/continual/continual_learner.h"
#include "workloads/dataset.h"

namespace perfbench {

using msh::f32;
using msh::f64;
using msh::i64;
using msh::u64;

struct Options {
  std::string workload;
  u64 seed = 42;
  f64 seconds = 15.0;
  bool trace = false;
  std::string trace_dir = ".";
};

inline f64 now_us() { return msh::monotonic_now_us(); }

/// Metric name -> (value, unit), in insertion order.
class Metrics {
 public:
  void set(const std::string& name, f64 value, const std::string& unit);
  /// Value of a metric set earlier; throws when absent.
  f64 get(const std::string& name) const;
  /// `{"name": {"value": v, "unit": "u"}, ...}`; a non-finite value
  /// prints as null so a broken measurement cannot pass as a number.
  std::string to_json() const;
  /// One "# name value unit" line per metric.
  std::string to_table() const;

 private:
  struct Entry {
    std::string name;
    f64 value = 0.0;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Operations attempted and failed across a run: requests, forwards,
/// bit-exact comparisons, swaps, publishes and fixture invariants. Used
/// from one thread.
struct Tally {
  i64 attempted = 0;
  i64 failed = 0;
  /// Counts one attempt; a false `ok` also counts a failure and reports
  /// the first few to stderr.
  void check(bool ok, const std::string& what);
};

/// Percentile of raw samples (p in [0, 100]), linearly interpolated
/// between order statistics; 0 when empty.
f64 percentile(std::vector<f64> samples, f64 p);
f64 median(std::vector<f64> samples);
f64 mean(const std::vector<f64>& samples);

/// In-memory span recorder, written once at exit as Chrome trace-event
/// JSON (chrome://tracing, Perfetto). Thread-safe.
class Tracer {
 public:
  /// Records a finished span and returns its id, usable as a parent.
  i64 add(std::string name, f64 start_us, f64 end_us, i64 parent = -1,
          u64 request = 0);
  /// Sets the end of a span added before its children.
  void set_end(i64 id, f64 end_us);
  void write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    f64 start_us = 0.0;
    f64 end_us = 0.0;
    i64 parent = -1;
    u64 request = 0;
    size_t thread = 0;
  };
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Runs `fn`, adds its wall time to `total_us` and, when `tracer` is set,
/// records it as a span. Returns what `fn` returns.
template <typename Fn>
auto timed(Tracer* tracer, const std::string& name, i64 parent,
           f64& total_us, Fn&& fn) {
  const f64 start = now_us();
  auto result = fn();
  const f64 end = now_us();
  total_us += end - start;
  if (tracer != nullptr) tracer->add(name, start, end, parent);
  return result;
}

/// The model every workload deploys: the serving benches' 12x12
/// four-class synthetic task and 8/16-channel Rep-Net, built at a fixed
/// seed, with the backbone and Rep convs pruned to 1:4 so 9 of its 11
/// layers deploy sparse. The workload seed only orders the image pool.
struct Fixture {
  msh::TrainTestSplit data;
  std::unique_ptr<msh::RepNetModel> model;
  msh::SparsityPlan backbone_plan;
  msh::SparsityPlan rep_plan;
  msh::Tensor pool;  ///< test images in seeded order, [P, C, H, W]
  /// Raw-backend replica: the reference every output is checked against.
  std::unique_ptr<msh::PimRepNetExecutor> raw;
  /// Modeled-backend replica: cycle and energy accounting.
  std::unique_ptr<msh::PimRepNetExecutor> modeled;
  msh::Tensor reference;  ///< raw logits of every pool image at batch 1

  i64 pool_size() const { return pool.shape()[0]; }
  /// Pool images [begin, begin + count) as one batch.
  msh::Tensor images(i64 begin, i64 count) const;
  /// Logits of every pool image from `exec`, one image per forward.
  msh::Tensor logits_of(msh::PimRepNetExecutor& exec) const;
};

inline constexpr u64 kFixtureSeed = 42;
inline constexpr i64 kSparseLayers = 9;

/// The serving benches' synthetic task at the fixture seed.
msh::SyntheticSpec fixture_spec();
msh::BackboneConfig fixture_backbone();
msh::RepNetConfig fixture_rep_config();

std::unique_ptr<Fixture> make_fixture(u64 seed, Tally& tally);

/// True when row `row` of `logits` equals row `ref_row` of `ref` bit for
/// bit.
bool same_row(const msh::Tensor& logits, i64 row, const msh::Tensor& ref,
              i64 ref_row);

// ---- offline executor legs ---------------------------------------------

/// Per-call times of one round of the executor legs over the first 32
/// pool images: raw batch 1, raw batch 32 and modeled batch 8.
struct OfflineRound {
  std::vector<f64> raw_b1_ms;
  std::vector<f64> raw_b32_ms;
  std::vector<f64> modeled_b8_ms;
};

/// Rounds of the executor legs, about one second each. A leg's time is
/// its median in the round where that median is lowest: host contention
/// comes and goes within seconds, and the fastest round is the one it
/// touched least.
struct OfflineSamples {
  std::vector<OfflineRound> rounds;
  /// Modeled accounting of one pass over the 32 images; every pass must
  /// repeat it exactly.
  msh::PeEventCounts pass_events;
  i64 pass_bus_bits = 0;
  i64 pass_buffer_bytes_read = 0;
  i64 passes = 0;
};

/// Runs whole rounds until at least `min_rounds` are done and `seconds`
/// have passed, adding to `s`. Every output is checked against the
/// reference logits.
void run_offline(Fixture& fx, i64 min_rounds, f64 seconds, Tracer* tracer,
                 Tally& tally, OfflineSamples& s);
/// The round with the lowest median of `leg`.
const OfflineRound& fastest_round(const OfflineSamples& s,
                                  std::vector<f64> OfflineRound::*leg);
/// Executor end-to-end metrics: raw/modeled ms per image, modeled cycles
/// and energy per image.
void report_offline(const OfflineSamples& s, Metrics& m);
/// Per-layer read-path totals and modeled pim/arch/sim counts.
void report_offline_layers(const OfflineSamples& s, Metrics& m);

/// Replays the executor's forward over deployed copies of its layers and
/// reports per-layer, periphery and tensor/kernels/arch step times.
void run_layer_probe(Fixture& fx, Tracer* tracer, Metrics& m, Tally& tally);

// ---- serving phases ------------------------------------------------------

/// One stretch of a serving phase: serve_open's requests in send order,
/// serve_train's replies by the lane round they arrived in.
struct ServeWindow {
  std::vector<f64> latency_ms;
  f64 seconds = 0.0;  ///< serve_train only: the lane round's length
};

/// Client-side samples of a serving phase's measured window.
struct ServeSamples {
  std::vector<f64> latency_ms;
  std::vector<f64> submit_us;
  std::vector<f64> queue_ms;
  std::vector<f64> service_ms;
  std::vector<f64> wake_us;
  std::vector<f64> lag_ms;
  std::vector<f64> batch_rows;
  i64 images = 0;
  f64 window_s = 0.0;
  std::vector<ServeWindow> windows;
  i64 rejected = 0, shed = 0, timed_out = 0, failed = 0, retries = 0;
  f64 swap_model_ms = 0.0;  ///< bench-issued swap, traced runs only
};
/// Latency p50 and p75 and throughput: the median over the run's windows
/// of each window's value (throughput pooled when windows have no
/// length), so a few seconds of host contention move only the windows
/// they overlap.
void report_serving(const ServeSamples& s, Metrics& m);
void report_runtime_layers(const ServeSamples& s, Metrics& m);

/// Open loop: one generator thread sends seeded Poisson single-image
/// requests at 24 req/s to a 2-worker engine.
class ServeOpen {
 public:
  ServeOpen(u64 seed, Tally& tally);
  Fixture& fixture() { return *fx_; }
  /// Runs the open loop, then shuts the engine down.
  ServeSamples run(const Options& opt, Tracer* tracer, Tally& tally);

 private:
  std::unique_ptr<Fixture> fx_;
  std::unique_ptr<msh::ServingEngine> engine_;
};

/// Lane counters and round times of a train-while-serve phase.
struct LaneSamples {
  std::vector<f64> round_s;
  f64 best_accuracy = 0.0;
  i64 steps = 0, publishes = 0, rollbacks = 0;
  i64 train_pe_cycles = 0, slots_written = 0;
};
void report_lane_layers(const LaneSamples& s, Metrics& m);

/// Closed loop of 16 single-image requests in flight beside synchronous
/// ContinualLearner rounds that publish through swap_model.
class ServeTrain {
 public:
  ServeTrain(u64 seed, Tally& tally);
  Fixture& fixture() { return *fx_; }
  /// Runs `rounds` lane rounds under traffic, then shuts the engine down.
  ServeSamples run(i64 rounds, Tracer* tracer, Tally& tally,
                   LaneSamples& lane);

 private:
  u64 seed_;
  // Destroyed bottom-up: the learner refers to the engine and trainer
  // model, the engine to the fixture's model.
  std::unique_ptr<Fixture> fx_;
  std::unique_ptr<msh::ServingEngine> engine_;
  std::unique_ptr<msh::RepNetModel> trainer_;
  msh::SparsityPlan trainer_plan_;
  std::unique_ptr<msh::ContinualLearner> learner_;
};

/// Lane rounds a train-while-serve run of `seconds` performs; fixed per
/// run length so the lane's counters repeat exactly per seed.
i64 lane_rounds_for(f64 seconds);

/// The drifted personalization task the lane adapts to.
msh::SyntheticSpec adaptation_spec();

/// Replays one lane round's steps on benchmark-owned objects (trainer
/// mirror, in-PIM head, candidate clone) and times each call.
void run_lane_replay(Fixture& fx, u64 seed, Tracer* tracer, Metrics& m,
                     Tally& tally);

}  // namespace perfbench
