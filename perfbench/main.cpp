// The repository benchmark program: one workload per process.
//
//   perfbench --workload serve_open|serve_train|offline_forward
//             --seed N --seconds S --trace 0|1
//             [--trace-dir DIR] [--commit SHA]
//
// Untraced (--trace 0), the last stdout line reports every end-to-end
// metric; traced (--trace 1), it reports every per-layer metric and the
// spans go to DIR as Chrome trace-event JSON. Every workload measures
// every metric: the serving workloads also run the offline executor legs
// before and after their serving phase, and a traced run adds the layer
// probe, the lane-step replay and, where the workload has no lane, two
// train-while-serve rounds. See perfbench/METRICS.md.
//
// Exit status: 0 when every output was correct; 1 on a failed check or
// error (the result line then says "correct": false); 2 on bad usage.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <limits>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "kernels/simd.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif

namespace perfbench {
namespace {

// setup_s: after the run the workload's state is built again on each CPU
// the process may use, with the building thread pinned there, at least
// once and up to kSetupsPerCpu times while under kSetupBudgetPerCpuS;
// reported is the lowest per-CPU median. The vCPUs of a shared host run
// at speeds that differ and change from minute to minute (per-CPU
// set-up medians of 0.046-0.071 s at one moment on a 4-vCPU VM), and
// the least contended one is steadiest from run to run, as the executor
// legs report their fastest round. The run's own build, first in the
// process, is not timed: it also pays one-off heap growth.
constexpr size_t kSetupsPerCpu = 3;
constexpr f64 kSetupBudgetPerCpuS = 0.3;
// Offline rounds run before, and again after, a serving phase.
constexpr i64 kBracketRounds = 6;
constexpr i64 kProbeLaneRounds = 2;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "serve_open|serve_train|offline_forward --seed N --seconds S "
               "--trace 0|1 [--trace-dir DIR] [--commit SHA]\n",
               why);
  return 2;
}

// Times `make` on each CPU in turn and reports setup_s (see above).
template <typename Make>
void report_setup(const Make& make, Metrics& m) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (pthread_getaffinity_np(pthread_self(), sizeof(allowed), &allowed) != 0)
    throw std::runtime_error("pthread_getaffinity_np failed");
  f64 best = std::numeric_limits<f64>::infinity();
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    // Where pinning is refused the builds run unpinned.
    pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
    std::vector<f64> seconds;
    const f64 first = now_us();
    while (seconds.empty() ||
           (seconds.size() < kSetupsPerCpu &&
            now_us() - first < kSetupBudgetPerCpuS * 1e6)) {
      const f64 start = now_us();
      const auto state = make();
      seconds.push_back((now_us() - start) / 1e6);
    }
    best = std::min(best, median(seconds));
  }
  pthread_setaffinity_np(pthread_self(), sizeof(allowed), &allowed);
  m.set("setup_s", best, "s");
}

void report_overhead(const Metrics& untraced, const Metrics& traced,
                     Metrics& layer) {
  for (const char* name :
       {"latency_p50_ms", "latency_p75_ms", "throughput_img_s"}) {
    layer.set(std::string("trace.overhead.") + name,
              traced.get(name) - untraced.get(name),
              std::string(name).ends_with("_ms") ? "ms" : "img/s");
  }
}

// Offline legs as the serving workloads report them: raw batch-1 call
// latency and raw batch-32 throughput.
void report_offline_serving(const OfflineSamples& s, Metrics& m) {
  const OfflineRound& b1 = fastest_round(s, &OfflineRound::raw_b1_ms);
  m.set("latency_p50_ms", percentile(b1.raw_b1_ms, 50.0), "ms");
  // p75 from the round where it is lowest: the fastest-median round's
  // upper quartile can still hold a burst of contention.
  f64 p75 = std::numeric_limits<f64>::infinity();
  for (const OfflineRound& r : s.rounds)
    p75 = std::min(p75, percentile(r.raw_b1_ms, 75.0));
  m.set("latency_p75_ms", p75, "ms");
  const OfflineRound& b32 = fastest_round(s, &OfflineRound::raw_b32_ms);
  m.set("throughput_img_s", 32.0 / (median(b32.raw_b32_ms) / 1e3), "img/s");
}

void print_serving(const ServeSamples& s) {
  std::printf("# serving: %lld replies in %.2f s, mean batch %.2f rows\n",
              static_cast<long long>(s.images), s.window_s, mean(s.batch_rows));
}

void check_same_lane(const LaneSamples& a, const LaneSamples& b,
                     Tally& tally) {
  tally.check(a.best_accuracy == b.best_accuracy && a.steps == b.steps &&
                  a.publishes == b.publishes && a.rollbacks == b.rollbacks &&
                  a.train_pe_cycles == b.train_pe_cycles &&
                  a.slots_written == b.slots_written,
              "lane counters repeat exactly between untraced and traced runs");
}

// Runs `phase` between two runs of the offline legs, so a serving
// workload's executor metrics sample both ends of the run.
template <typename Phase>
auto bracketed(Fixture& fx, Tracer* tracer, Tally& tally,
               OfflineSamples& offline, Phase&& phase) {
  run_offline(fx, kBracketRounds, 0.0, tracer, tally, offline);
  auto result = phase();
  run_offline(fx, kBracketRounds, 0.0, tracer, tally, offline);
  return result;
}

// Per-layer metrics every traced run reports from the fixture itself.
void fixture_probes(Fixture& fx, const Options& opt, Tracer* tracer,
                    Metrics& layer, Tally& tally) {
  run_layer_probe(fx, tracer, layer, tally);
  run_lane_replay(fx, opt.seed, tracer, layer, tally);
}

void run_serve_open(const Options& opt, Tracer* tracer, Metrics& e2e,
                    Metrics& layer, Tally& tally) {
  const auto make = [&] {
    return std::make_unique<ServeOpen>(opt.seed, tally);
  };
  auto w = make();
  OfflineSamples offline;
  const ServeSamples served =
      bracketed(w->fixture(), nullptr, tally, offline,
                [&] { return w->run(opt, nullptr, tally); });
  w.reset();
  report_setup(make, e2e);
  report_serving(served, e2e);
  print_serving(served);
  report_offline(offline, e2e);
  if (tracer == nullptr) return;

  ServeOpen t(opt.seed, tally);
  OfflineSamples traced_off;
  const ServeSamples s = bracketed(t.fixture(), tracer, tally, traced_off,
                                   [&] { return t.run(opt, tracer, tally); });
  Metrics traced;
  report_serving(s, traced);
  report_overhead(e2e, traced, layer);
  report_runtime_layers(s, layer);
  layer.set("runtime.swap_model_ms", s.swap_model_ms, "ms");
  report_offline_layers(traced_off, layer);
  fixture_probes(t.fixture(), opt, tracer, layer, tally);
  // No lane in this workload: two train-while-serve rounds supply the
  // lane's per-layer metrics.
  ServeTrain lane_probe(opt.seed, tally);
  LaneSamples lane;
  lane_probe.run(kProbeLaneRounds, tracer, tally, lane);
  report_lane_layers(lane, layer);
}

void run_serve_train(const Options& opt, Tracer* tracer, Metrics& e2e,
                     Metrics& layer, Tally& tally) {
  const i64 rounds = lane_rounds_for(opt.seconds);
  const auto make = [&] {
    return std::make_unique<ServeTrain>(opt.seed, tally);
  };
  auto w = make();
  LaneSamples lane;
  OfflineSamples offline;
  const ServeSamples served =
      bracketed(w->fixture(), nullptr, tally, offline,
                [&] { return w->run(rounds, nullptr, tally, lane); });
  w.reset();
  report_setup(make, e2e);
  report_serving(served, e2e);
  print_serving(served);
  report_offline(offline, e2e);
  std::printf("# lane: %lld rounds, median round %.3f s, best accuracy %.4f, "
              "%lld publishes, %lld rollbacks\n",
              static_cast<long long>(rounds), median(lane.round_s),
              lane.best_accuracy, static_cast<long long>(lane.publishes),
              static_cast<long long>(lane.rollbacks));
  if (tracer == nullptr) return;

  ServeTrain t(opt.seed, tally);
  LaneSamples traced_lane;
  OfflineSamples traced_off;
  const ServeSamples s =
      bracketed(t.fixture(), tracer, tally, traced_off,
                [&] { return t.run(rounds, tracer, tally, traced_lane); });
  check_same_lane(lane, traced_lane, tally);
  Metrics traced;
  report_serving(s, traced);
  report_overhead(e2e, traced, layer);
  report_runtime_layers(s, layer);
  layer.set("runtime.swap_model_ms", s.swap_model_ms, "ms");
  report_lane_layers(traced_lane, layer);
  report_offline_layers(traced_off, layer);
  fixture_probes(t.fixture(), opt, tracer, layer, tally);
}

void run_offline_forward(const Options& opt, Tracer* tracer, Metrics& e2e,
                         Metrics& layer, Tally& tally) {
  const auto make = [&] { return make_fixture(opt.seed, tally); };
  auto fx = make();
  OfflineSamples s;
  run_offline(*fx, 1, opt.seconds, nullptr, tally, s);
  fx.reset();
  report_setup(make, e2e);
  report_offline_serving(s, e2e);
  report_offline(s, e2e);
  if (tracer == nullptr) return;

  auto traced_fx = make_fixture(opt.seed, tally);
  OfflineSamples ts;
  run_offline(*traced_fx, 1, opt.seconds, tracer, tally, ts);
  Metrics traced;
  report_offline_serving(ts, traced);
  report_offline(ts, traced);
  report_overhead(e2e, traced, layer);
  for (const char* exact :
       {"modeled_pe_cycles_per_img", "modeled_energy_nj_per_img"}) {
    tally.check(traced.get(exact) == e2e.get(exact),
                std::string(exact) + " repeats exactly when traced");
  }
  report_offline_layers(ts, layer);
  fixture_probes(*traced_fx, opt, tracer, layer, tally);
  // No runtime and no lane in this workload: two train-while-serve rounds
  // supply their per-layer metrics.
  ServeTrain probe(opt.seed, tally);
  LaneSamples lane;
  const ServeSamples rs = probe.run(kProbeLaneRounds, tracer, tally, lane);
  report_runtime_layers(rs, layer);
  layer.set("runtime.swap_model_ms", rs.swap_model_ms, "ms");
  report_lane_layers(lane, layer);
}

f64 peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<f64>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  std::string commit = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && opt.seconds > 0.0 &&
                     opt.seconds <= 120.0;
    } else if (flag == "--trace") {
      opt.trace = std::strcmp(value, "1") == 0;
      have_trace = opt.trace || std::strcmp(value, "0") == 0;
    } else if (flag == "--trace-dir") {
      opt.trace_dir = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    return usage("--workload, --seed, --seconds (0, 120] and --trace 0|1 "
                 "are required");
  if (opt.workload != "serve_open" && opt.workload != "serve_train" &&
      opt.workload != "offline_forward")
    return usage(("unknown workload " + opt.workload).c_str());

#ifdef PERFBENCH_SANITIZED
  std::fprintf(stderr, "perfbench: refusing to time a sanitizer build\n");
  return 1;
#endif
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "perfbench: refusing to time an unoptimized build\n");
  return 1;
#endif

  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  std::printf("# build=%s compiler=\"%s\" simd=%s nproc=%u commit=%s\n",
              PERFBENCH_BUILD_TYPE, __VERSION__, msh::simd::kIsa,
              std::thread::hardware_concurrency(), commit.c_str());
  std::fflush(stdout);

  Tally tally;
  Metrics e2e, layer;
  std::unique_ptr<Tracer> tracer =
      opt.trace ? std::make_unique<Tracer>() : nullptr;
  try {
    if (opt.workload == "serve_open") {
      run_serve_open(opt, tracer.get(), e2e, layer, tally);
    } else if (opt.workload == "serve_train") {
      run_serve_train(opt, tracer.get(), e2e, layer, tally);
    } else {
      run_offline_forward(opt, tracer.get(), e2e, layer, tally);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
  e2e.set("peak_rss_mb", peak_rss_mb(), "MB");

  if (tracer) {
    layer.set("error_rate",
              tally.attempted > 0 ? static_cast<f64>(tally.failed) /
                                        static_cast<f64>(tally.attempted)
                                  : 0.0,
              "fraction");
    const std::string path = opt.trace_dir + "/" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + ".json";
    try {
      tracer->write_chrome_json(path);
      std::printf("# trace written to %s\n", path.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: error: %s\n", e.what());
      return 1;
    }
  }
  const Metrics& out = opt.trace ? layer : e2e;
  std::printf("%s", out.to_table().c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              tally.failed == 0 ? "true" : "false",
              static_cast<long long>(tally.attempted),
              static_cast<long long>(tally.failed), out.to_json().c_str());
  return tally.failed == 0 ? 0 : 1;
}
