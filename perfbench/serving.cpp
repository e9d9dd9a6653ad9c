// Serving workloads: the open loop (serve_open), the closed loop beside
// the continual-learning lane (serve_train), and the replay of a lane
// round's steps.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "bench.h"
#include "nn/optimizer.h"

namespace perfbench {
namespace {

constexpr f64 kOpenRate = 24.0;   // req/s, about 30% of 2-worker capacity
constexpr i64 kOpenWarmup = 24;   // requests excluded from the samples
constexpr i64 kOpenCollectors = 4;  // threads waiting on open-loop replies
constexpr i64 kOpenWindowRequests = 40;  // requests per latency window
constexpr i64 kTrainWindow = 16;    // closed-loop callers, one request each
constexpr f64 kTrainWarmupS = 1.0;

msh::ServingEngineOptions engine_options(i64 max_batch_rows) {
  msh::ServingEngineOptions options;
  options.workers = 2;
  options.queue_capacity = 256;
  options.batcher = {.max_batch_rows = max_batch_rows, .max_wait_us = 200.0};
  options.intra_op_threads = 1;
  return options;
}

// The lane's configuration, shared by the serve_train learner and the
// lane-step replay so both describe the same lane.
msh::ContinualLearnerOptions lane_options(u64 seed) {
  msh::ContinualLearnerOptions lane;
  lane.seed = seed;
  lane.batch = 8;
  lane.steps_per_round = 6;
  lane.rep_lr = 0.02f;
  lane.head_lr = 0.15f;
  lane.min_accuracy_gain = 0.01;
  lane.rollback_margin = 0.05;
  lane.holdout_batch = 16;
  lane.duty_cycle = 1.0;
  lane.swap.worker_timeout_us = 120e6;
  return lane;
}

// The drifted task stream the lane adapts to.
msh::TaskStream lane_stream(u64 seed) {
  return msh::TaskStream(msh::make_synthetic_dataset(adaptation_spec()),
                         seed + 7);
}

// The lane's trainer-side model, before it mirrors the served weights.
std::unique_ptr<msh::RepNetModel> make_trainer_model() {
  msh::Rng rng(kFixtureSeed + 1);
  return std::make_unique<msh::RepNetModel>(
      fixture_backbone(), fixture_rep_config(), fixture_spec().classes, rng);
}

// One request as the client sent it.
struct InFlight {
  i64 ordinal = 0;  ///< open-loop send order
  i64 pool_index = 0;
  f64 due_us = 0.0;  ///< when it was due to be sent
  f64 submit_start_us = 0.0;
  f64 submit_end_us = 0.0;
  msh::ResponseFuture future;
};

// One resolved request as the client saw it.
struct Completed {
  i64 ordinal = 0;
  i64 pool_index = 0;
  f64 due_us = 0.0;
  f64 submit_start_us = 0.0;
  f64 submit_end_us = 0.0;
  f64 observed_us = 0.0;  ///< when the client saw the response
  msh::InferenceResponse response;
};

// Blocks on `f` and stamps the moment its response arrives.
Completed await_reply(InFlight& f) {
  Completed c;
  c.response = f.future.get();
  c.observed_us = now_us();
  c.ordinal = f.ordinal;
  c.pool_index = f.pool_index;
  c.due_us = f.due_us;
  c.submit_start_us = f.submit_start_us;
  c.submit_end_us = f.submit_end_us;
  return c;
}

// A few threads that each wait on one sent request at a time, so every
// reply is observed when it arrives, not behind an older one still in
// service, and the sender never waits.
class Collectors {
 public:
  explicit Collectors(i64 threads) {
    for (i64 t = 0; t < threads; ++t) threads_.emplace_back([this] { loop(); });
  }
  ~Collectors() { finish(); }
  Collectors(const Collectors&) = delete;
  Collectors& operator=(const Collectors&) = delete;

  void add(InFlight f) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back(std::move(f));
    }
    ready_.notify_one();
  }

  /// Waits for every added request and returns the completions.
  std::vector<Completed> finish() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closing_ = true;
    }
    ready_.notify_all();
    for (std::thread& t : threads_)
      if (t.joinable()) t.join();
    return std::move(done_);
  }

 private:
  void loop() {
    for (;;) {
      InFlight f;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        ready_.wait(lock, [&] { return closing_ || !queue_.empty(); });
        if (queue_.empty()) return;
        f = std::move(queue_.front());
        queue_.pop_front();
      }
      Completed c = await_reply(f);
      std::lock_guard<std::mutex> lock(mutex_);
      done_.push_back(std::move(c));
    }
  }

  std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<InFlight> queue_;
  std::vector<Completed> done_;
  bool closing_ = false;
  std::vector<std::thread> threads_;
};

// Sleeps until shortly before `until_us`, then yields until it passes, so
// a send is neither late nor paid for with a spinning core.
void wait_until(f64 until_us) {
  constexpr f64 kSpinUs = 300.0;
  const f64 left = until_us - now_us();
  if (left > kSpinUs) {
    std::this_thread::sleep_for(
        std::chrono::duration<f64, std::micro>(left - kSpinUs));
  }
  while (now_us() < until_us) std::this_thread::yield();
}

// Adds one request's client-side samples and, when tracing, its spans.
void sample(const Completed& c, ServeSamples& s, Tracer* tracer) {
  const msh::InferenceResponse& r = c.response;
  const f64 queued_at = c.submit_start_us + r.queue_us;
  const f64 done_at = c.submit_start_us + r.total_us;
  s.latency_ms.push_back((c.observed_us - c.due_us) / 1e3);
  s.submit_us.push_back(c.submit_end_us - c.submit_start_us);
  s.queue_ms.push_back(r.queue_us / 1e3);
  s.service_ms.push_back((r.total_us - r.queue_us) / 1e3);
  s.wake_us.push_back(c.observed_us - done_at);
  s.lag_ms.push_back((c.submit_start_us - c.due_us) / 1e3);
  s.batch_rows.push_back(static_cast<f64>(r.batch_rows));
  s.images += 1;
  if (tracer == nullptr) return;
  const i64 root =
      tracer->add("runtime.request", c.due_us, c.observed_us, -1, r.id);
  tracer->add("runtime.submit", c.submit_start_us, c.submit_end_us, root,
              r.id);
  tracer->add("runtime.queue", c.submit_start_us, queued_at, root, r.id);
  tracer->add("runtime.service", queued_at, done_at, root, r.id);
  tracer->add("runtime.wake", done_at, c.observed_us, root, r.id);
}

void engine_counters(const msh::ServingEngine& engine, ServeSamples& s) {
  const msh::MetricsSnapshot snap = engine.metrics().snapshot();
  s.rejected = snap.rejected_requests;
  s.shed = snap.shed_requests;
  s.timed_out = snap.timed_out_requests;
  s.failed = snap.failed_requests;
  s.retries = snap.retries;
}

}  // namespace

void report_serving(const ServeSamples& s, Metrics& m) {
  std::vector<f64> p50, p75, img_s;
  for (const ServeWindow& w : s.windows) {
    if (w.latency_ms.empty()) continue;
    p50.push_back(percentile(w.latency_ms, 50.0));
    p75.push_back(percentile(w.latency_ms, 75.0));
    if (w.seconds > 0.0)
      img_s.push_back(static_cast<f64>(w.latency_ms.size()) / w.seconds);
  }
  m.set("latency_p50_ms", median(p50), "ms");
  m.set("latency_p75_ms", median(p75), "ms");
  m.set("throughput_img_s",
        !img_s.empty()     ? median(img_s)
        : s.window_s > 0.0 ? static_cast<f64>(s.images) / s.window_s
                           : 0.0,
        "img/s");
}

void report_runtime_layers(const ServeSamples& s, Metrics& m) {
  // The tail beyond the bounded p75, pooled over the run.
  m.set("client.latency_p95_ms", percentile(s.latency_ms, 95.0), "ms");
  m.set("runtime.submit_us.p50", percentile(s.submit_us, 50.0), "us");
  m.set("runtime.queue_wait_ms.p50", percentile(s.queue_ms, 50.0), "ms");
  m.set("runtime.queue_wait_ms.p95", percentile(s.queue_ms, 95.0), "ms");
  m.set("runtime.service_ms.p50", percentile(s.service_ms, 50.0), "ms");
  m.set("runtime.wake_us.p50", percentile(s.wake_us, 50.0), "us");
  m.set("runtime.batch_rows.mean", mean(s.batch_rows), "rows");
  m.set("runtime.rejected", static_cast<f64>(s.rejected), "count");
  m.set("runtime.shed", static_cast<f64>(s.shed), "count");
  m.set("runtime.timed_out", static_cast<f64>(s.timed_out), "count");
  m.set("runtime.failed", static_cast<f64>(s.failed), "count");
  m.set("runtime.retries", static_cast<f64>(s.retries), "count");
  m.set("driver.lag_ms.p95", percentile(s.lag_ms, 95.0), "ms");
  m.set("driver.lag_ms.max", percentile(s.lag_ms, 100.0), "ms");
}

void report_lane_layers(const LaneSamples& s, Metrics& m) {
  m.set("continual.round_s", median(s.round_s), "s");
  m.set("continual.best_accuracy", s.best_accuracy, "fraction");
  m.set("continual.steps", static_cast<f64>(s.steps), "count");
  m.set("continual.publishes", static_cast<f64>(s.publishes), "count");
  m.set("continual.rollbacks", static_cast<f64>(s.rollbacks), "count");
  m.set("continual.train_pe_cycles", static_cast<f64>(s.train_pe_cycles),
        "modeled_cycles");
  m.set("continual.slots_written", static_cast<f64>(s.slots_written),
        "count");
}

// ---- serve_open ----------------------------------------------------------

ServeOpen::ServeOpen(u64 seed, Tally& tally)
    : fx_(make_fixture(seed, tally)),
      engine_(std::make_unique<msh::ServingEngine>(
          *fx_->model, fx_->data.train, engine_options(4))) {}

ServeSamples ServeOpen::run(const Options& opt, Tracer* tracer,
                            Tally& tally) {
  // A seeded Poisson stream conditioned on its count: `total` arrival
  // times uniform over total / rate seconds, so every seed offers exactly
  // the same load and only the arrival pattern varies.
  const i64 measured =
      std::max<i64>(240, std::llround(kOpenRate * opt.seconds));
  const i64 total = kOpenWarmup + measured;
  msh::Rng rng(opt.seed ^ 0x0be11100ull);
  std::vector<f64> due(static_cast<size_t>(total));
  std::vector<i64> pick(static_cast<size_t>(total));
  for (i64 i = 0; i < total; ++i) {
    due[static_cast<size_t>(i)] =
        rng.uniform() * static_cast<f64>(total) / kOpenRate * 1e6;
    pick[static_cast<size_t>(i)] =
        static_cast<i64>(rng.uniform_index(static_cast<u64>(fx_->pool_size())));
  }
  std::sort(due.begin(), due.end());

  // The generator only sends; the collectors observe each reply.
  Collectors collectors(kOpenCollectors);
  const f64 t0 = now_us() + 1000.0;
  for (i64 i = 0; i < total; ++i) {
    const i64 pool_index = pick[static_cast<size_t>(i)];
    msh::Tensor image = fx_->images(pool_index, 1);
    const f64 due_at = t0 + due[static_cast<size_t>(i)];
    wait_until(due_at);
    const f64 start = now_us();
    msh::ResponseFuture future = engine_->submit(std::move(image));
    collectors.add({i, pool_index, due_at, start, now_us(), std::move(future)});
  }
  const std::vector<Completed> done = collectors.finish();

  ServeSamples s;
  const i64 windows = std::max<i64>(4, measured / kOpenWindowRequests);
  s.windows.resize(static_cast<size_t>(windows));
  f64 last_observed = 0.0;
  for (const Completed& c : done) {
    const bool ok = c.response.status == msh::RequestStatus::kOk;
    tally.check(ok, std::string("serve_open request ") +
                        msh::to_string(c.response.status));
    if (!ok) continue;
    tally.check(same_row(c.response.logits, 0, fx_->reference, c.pool_index),
                "serve_open logits differ from the reference");
    if (c.ordinal < kOpenWarmup) continue;
    sample(c, s, tracer);
    const i64 window = (c.ordinal - kOpenWarmup) * windows / measured;
    s.windows[static_cast<size_t>(window)].latency_ms.push_back(
        s.latency_ms.back());
    last_observed = std::max(last_observed, c.observed_us);
  }
  const f64 first_due = t0 + due[static_cast<size_t>(kOpenWarmup)];
  s.window_s = (last_observed - first_due) / 1e6;

  if (tracer != nullptr) {
    // A bench-issued swap of the image already being served: times the
    // deploy -> verify -> promote roll without changing any output.
    const auto image =
        std::make_shared<msh::DeploymentImage>(fx_->raw->export_image());
    const f64 start = now_us();
    tally.check(engine_->swap_model(image), "serve_open swap_model");
    s.swap_model_ms = (now_us() - start) / 1e3;
    tracer->add("runtime.swap_model", start, now_us());
  }
  engine_->shutdown();
  engine_counters(*engine_, s);
  return s;
}

// ---- serve_train ---------------------------------------------------------

i64 lane_rounds_for(f64 seconds) {
  // Pruned lane rounds take about 1.5 s on the modeled backend.
  return std::max<i64>(2, std::llround(seconds / 1.5));
}

ServeTrain::ServeTrain(u64 seed, Tally& tally)
    : seed_(seed),
      fx_(make_fixture(seed, tally)),
      engine_(std::make_unique<msh::ServingEngine>(
          *fx_->model, fx_->data.train, engine_options(8))) {
  trainer_ = make_trainer_model();
  learner_ = std::make_unique<msh::ContinualLearner>(
      *engine_, *trainer_, lane_stream(seed), fx_->data.train,
      lane_options(seed));
  // The learner mirrors weights but not masks: re-attach the 1:4 pattern
  // to the mirrored Rep convs so training keeps it and every published
  // image fits the served 1:4 deployments. Magnitude pruning of weights
  // that are already 1:4 keeps exactly their non-zeros.
  trainer_plan_.prune(trainer_->rep_conv_params(), msh::kSparse1of4,
                      /*use_gradient_saliency=*/false);
}

ServeSamples ServeTrain::run(i64 rounds, Tracer* tracer, Tally& tally,
                             LaneSamples& lane) {
  // Client: a closed loop of kTrainWindow callers, each sending its next
  // single-image request when its reply arrives.
  std::atomic<bool> stop{false};
  std::vector<std::vector<Completed>> done(kTrainWindow);
  std::vector<std::exception_ptr> caller_error(kTrainWindow);
  std::vector<std::thread> callers;
  for (i64 slot = 0; slot < kTrainWindow; ++slot) {
    callers.emplace_back([&, slot] {
      try {
        msh::Rng rng(seed_ ^ 0xc11e47ull ^ (static_cast<u64>(slot) << 32));
        std::vector<Completed>& mine = done[static_cast<size_t>(slot)];
        // A closed-loop request is due when the caller's previous reply
        // arrives.
        f64 due_us = now_us();
        while (!stop.load(std::memory_order_acquire)) {
          InFlight f;
          f.pool_index = static_cast<i64>(
              rng.uniform_index(static_cast<u64>(fx_->pool_size())));
          msh::Tensor image = fx_->images(f.pool_index, 1);
          f.due_us = due_us;
          f.submit_start_us = now_us();
          f.future = engine_->submit(std::move(image));
          f.submit_end_us = now_us();
          mine.push_back(await_reply(f));
          due_us = mine.back().observed_us;
        }
      } catch (...) {
        caller_error[static_cast<size_t>(slot)] = std::current_exception();
      }
    });
  }
  // Stops and joins the callers; also on every exit path, exceptions
  // included.
  struct JoinCallers {
    std::atomic<bool>& stop;
    std::vector<std::thread>& threads;
    void operator()() {
      stop.store(true, std::memory_order_release);
      for (std::thread& t : threads)
        if (t.joinable()) t.join();
    }
    ~JoinCallers() { (*this)(); }
  } join_callers{stop, callers};

  // Reference logits of every generation the engine may serve: the base
  // model, then each published image, deployed on the raw backend.
  std::vector<msh::Tensor> generations{fx_->reference};
  msh::PimExecutorOptions raw_options;
  raw_options.backend = msh::KernelBackend::kRaw;

  std::this_thread::sleep_for(
      std::chrono::duration<f64>(kTrainWarmupS));
  const f64 window_start = now_us();
  std::vector<f64> round_start_us, round_end_us;
  i64 publishes = learner_->publishes();
  for (i64 r = 0; r < rounds; ++r) {
    f64 round_us = 0.0;
    round_start_us.push_back(now_us());
    timed(tracer, "continual.round", -1, round_us, [&] {
      learner_->run_round();
      return 0;
    });
    round_end_us.push_back(round_start_us.back() + round_us);
    lane.round_s.push_back(round_us / 1e6);
    if (learner_->publishes() != publishes) {
      publishes = learner_->publishes();
      auto exec = msh::PimRepNetExecutor::deploy_from_image(
          *fx_->model, raw_options, fx_->raw->input_amax(),
          learner_->last_published());
      generations.push_back(fx_->logits_of(*exec));
    }
  }
  ServeSamples s;
  s.windows.resize(static_cast<size_t>(rounds));
  if (tracer != nullptr) {
    // A bench-issued swap under traffic, to the generation being served.
    auto image = learner_->last_published();
    if (!image) {
      image = std::make_shared<msh::DeploymentImage>(fx_->raw->export_image());
    }
    const f64 start = now_us();
    tally.check(engine_->swap_model(image), "serve_train swap_model");
    s.swap_model_ms = (now_us() - start) / 1e3;
    tracer->add("runtime.swap_model", start, now_us());
  }
  const f64 window_end = now_us();
  join_callers();
  for (const std::exception_ptr& error : caller_error)
    if (error) std::rethrow_exception(error);
  engine_->shutdown();

  std::vector<Completed> replies;
  for (std::vector<Completed>& mine : done)
    for (Completed& c : mine) replies.push_back(std::move(c));
  for (const Completed& c : replies) {
    const bool ok = c.response.status == msh::RequestStatus::kOk;
    tally.check(ok, std::string("serve_train request ") +
                        msh::to_string(c.response.status));
    if (!ok) continue;
    bool matched = false;
    for (const msh::Tensor& ref : generations)
      matched = matched || same_row(c.response.logits, 0, ref, c.pool_index);
    tally.check(matched,
                "serve_train logits match no served generation's reference");
    if (c.submit_start_us < window_start || c.observed_us > window_end)
      continue;
    sample(c, s, tracer);
    // The lane round the reply arrived in, if any.
    for (size_t r = 0; r < round_start_us.size(); ++r) {
      if (c.observed_us >= round_start_us[r] &&
          c.observed_us < round_end_us[r]) {
        s.windows[r].latency_ms.push_back(s.latency_ms.back());
        break;
      }
    }
  }
  s.window_s = (window_end - window_start) / 1e6;
  for (size_t r = 0; r < round_start_us.size(); ++r)
    s.windows[r].seconds = (round_end_us[r] - round_start_us[r]) / 1e6;
  engine_counters(*engine_, s);

  const msh::MetricsSnapshot snap = engine_->metrics().snapshot();
  const msh::TrainingLaneCounters& t = snap.training_lane;
  tally.check(snap.swaps_failed == 0, "serve_train swaps_failed == 0");
  tally.check(t.publish_failures == 0, "serve_train publish_failures == 0");
  tally.check(t.rounds == rounds, "serve_train ran every lane round");
  lane.best_accuracy = learner_->best_accuracy();
  lane.steps = t.steps;
  lane.publishes = t.publishes;
  lane.rollbacks = t.rollbacks;
  lane.train_pe_cycles = t.train_pe_cycles;
  lane.slots_written = t.slots_written;
  return s;
}

// ---- lane step replay ----------------------------------------------------

void run_lane_replay(Fixture& fx, u64 seed, Tracer* tracer, Metrics& m,
                     Tally& tally) {
  // The objects a ContinualLearner owns, built the same way: a mirrored
  // trainer model (1:4 masks re-attached), its executor replica, an
  // in-PIM head warm-started from the classifier, Rep-path SGD.
  const msh::ContinualLearnerOptions lane = lane_options(seed);
  std::unique_ptr<msh::RepNetModel> trainer = make_trainer_model();
  msh::RepNetModel& mirror = *trainer;
  mirror.copy_state_from(*fx.model);
  msh::SparsityPlan plan;
  plan.prune(mirror.rep_conv_params(), msh::kSparse1of4, false);
  msh::PimRepNetExecutor exec(mirror, fx.data.train);
  msh::HybridCore head_core;
  msh::PimTrainerOptions head_options;
  head_options.lr = lane.head_lr;
  head_options.seed = lane.seed;
  msh::PimLinearTrainer head(head_core, mirror.feature_dim(),
                             fixture_spec().classes, head_options);
  head.set_state(mirror.classifier().weight().value,
                 mirror.classifier().bias().value);
  msh::Sgd sgd(mirror.rep_params(),
               msh::SgdOptions{.lr = lane.rep_lr,
                               .momentum = lane.rep_momentum,
                               .weight_decay = lane.rep_weight_decay});
  msh::TaskStream stream = lane_stream(seed);

  std::vector<f64> fwd_ms, step_ms, bwd_ms;
  for (i64 s = 0; s < lane.steps_per_round; ++s) {
    msh::Tensor x;
    std::vector<msh::i32> y;
    stream.next_batch(lane.batch, &x, &y);
    f64 us = 0.0;
    const msh::Tensor features = timed(tracer, "repnet.forward_features", -1,
                                       us, [&] {
      return mirror.forward_features(x, /*training=*/true);
    });
    fwd_ms.push_back(us / 1e3);
    msh::Tensor propagated;
    us = 0.0;
    timed(tracer, "deploy.train_step", -1, us, [&] {
      return head.train_step(features, y, &propagated);
    });
    step_ms.push_back(us / 1e3);
    us = 0.0;
    timed(tracer, "repnet.backward_features", -1, us, [&] {
      mirror.backward_features(propagated);
      return 0;
    });
    bwd_ms.push_back(us / 1e3);
    sgd.step();
  }
  mirror.classifier().weight().value = head.weights();
  mirror.classifier().bias().value = head.bias();

  std::vector<f64> clone_ms, export_ms, verify_ms;
  std::unique_ptr<msh::PimRepNetExecutor> candidate;
  for (i64 r = 0; r < 3; ++r) {
    f64 us = 0.0;
    candidate = timed(tracer, "deploy.clone", -1, us,
                      [&] { return exec.clone(); });
    clone_ms.push_back(us / 1e3);
    us = 0.0;
    const msh::DeploymentImage image = timed(
        tracer, "deploy.export_image", -1, us,
        [&] { return candidate->export_image(); });
    export_ms.push_back(us / 1e3);
    us = 0.0;
    const std::string diverged = timed(
        tracer, "deploy.verify_against", -1, us,
        [&] { return candidate->verify_against(image); });
    verify_ms.push_back(us / 1e3);
    tally.check(diverged.empty(), "lane replay verify_against: " + diverged);
  }
  f64 eval_us = 0.0;
  timed(tracer, "deploy.evaluate", -1, eval_us, [&] {
    return candidate->evaluate(stream.holdout(), lane.holdout_batch);
  });

  m.set("deploy.evaluate_s", eval_us / 1e6, "s");
  m.set("deploy.clone_ms", median(clone_ms), "ms");
  m.set("deploy.export_image_ms", median(export_ms), "ms");
  m.set("deploy.verify_against_ms", median(verify_ms), "ms");
  m.set("deploy.train_step_ms", median(step_ms), "ms");
  m.set("repnet.forward_features_ms", median(fwd_ms), "ms");
  m.set("repnet.backward_features_ms", median(bwd_ms), "ms");
}

}  // namespace perfbench
