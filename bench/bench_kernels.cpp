// Kernel microbenchmark + CI perf-regression gate. Runs the hot compute
// kernels of the stack at batch {1,8,32}, one thread, and writes
// BENCH_kernels.json.
//
// Two kinds of numbers per configuration:
//   ns_op   - measured wall-clock nanoseconds per batch row. Honest but
//             host-dependent; recorded for humans, and gated only for the
//             raw backend (--check-wallclock, below).
//   modeled - a modeled quantity, identical on every host, which is what
//             the CI gate compares against
//             bench/baselines/kernels_baseline.json with zero tolerance:
//             for the PE-emulation kernels (linear_matvec = SRAM deploy,
//             mram_matvec = MRAM deploy) the exact last_makespan() in
//             cycles; for the modeled backend-pair rows the SIMT
//             tile-parallel factor last_utilization() x PE pool, i.e. how
//             many PEs the schedule keeps busy on average.
//
// A third family benchmarks the two-tier executor (DESIGN §5i): the raw
// SIMD backend vs the modeled walk on the same deployment, verified
// bit-identical, with wall-clock ns/op measured as a median-of-N with
// interquartile outlier filtering — stable enough to gate on noisy
// hosted runners (--check-wallclock, tolerance documented in
// bench/baselines/kernels_wallclock_baseline.json).
//
//   usage: bench_kernels [--out FILE] [--check BASELINE] [--smoke]
//                        [--check-wallclock BASELINE]
//                        [--refresh-wallclock FILE]
// --check exits 1 when any gated modeled value differs from its baseline
// (at the baseline's 4-decimal precision, so makespans compare exactly),
// when a baseline gate has no current measurement, when a gated
// measurement has no baseline entry, or when bit-exactness fails.
// --check-wallclock applies the same missing-entry discipline to the
// wall-clock gates and additionally enforces the raw backend's minimum
// batch-32 speedup over the modeled path.
// --refresh-wallclock rewrites the wall-clock baseline from this run
// (the baseline-refresh workflow's path).
#include <algorithm>
#include <cmath>
#include <utility>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "arch/accelerator.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "deploy/pim_layer.h"
#include "mapping/quantized_nm.h"
#include "sparse/csc.h"
#include "sparse/nm_mask.h"

namespace msh {
namespace {

const i64 kBatchSweep[] = {1, 8, 32};

struct BenchResult {
  std::string kernel;
  i64 batch = 0;
  f64 ns_op = 0.0;    ///< wall-clock ns per batch row
  f64 modeled = 0.0;  ///< makespan or tile-parallel factor (gated rows)
  bool gated = false; ///< `modeled` compared against the baseline
  f64 speedup = 0.0;  ///< raw rows: modeled_ns / raw_ns, wall-clock
  bool wall_gated = false;  ///< ns_op compared against the wall-clock
                            ///< baseline (raw-backend kernels)
};

/// Wall-clock ns per batch row for `iters` repetitions of `fn`.
template <typename F>
f64 time_ns_per_row(i64 iters, i64 batch, F&& fn) {
  fn();  // warm-up (first-touch, lazy allocs)
  Stopwatch watch;
  for (i64 i = 0; i < iters; ++i) fn();
  return watch.elapsed_us() * 1e3 / static_cast<f64>(iters * batch);
}

/// Robust wall-clock ns per batch row: `samples` independent timings of
/// `inner` iterations each, interquartile-filtered (Tukey fences at
/// 1.5 x IQR drop scheduler hiccups and frequency ramps), median of the
/// survivors. This is the number the wall-clock CI gate compares — the
/// median-of-N discipline is what makes ns/op gateable on shared
/// hosted runners at all.
template <typename F>
f64 robust_ns_per_row(i64 samples, i64 inner, i64 batch, F&& fn) {
  fn();  // warm-up (first-touch, lazy allocs, branch predictors)
  std::vector<f64> timings;
  timings.reserve(static_cast<size_t>(samples));
  for (i64 s = 0; s < samples; ++s) {
    Stopwatch watch;
    for (i64 i = 0; i < inner; ++i) fn();
    timings.push_back(watch.elapsed_us() * 1e3 /
                      static_cast<f64>(inner * batch));
  }
  std::sort(timings.begin(), timings.end());
  const auto quartile = [&](f64 q) {
    const f64 at = q * static_cast<f64>(timings.size() - 1);
    const size_t lo = static_cast<size_t>(at);
    const size_t hi = std::min(lo + 1, timings.size() - 1);
    return timings[lo] + (at - static_cast<f64>(lo)) *
                             (timings[hi] - timings[lo]);
  };
  const f64 q1 = quartile(0.25), q3 = quartile(0.75);
  const f64 fence_lo = q1 - 1.5 * (q3 - q1);
  const f64 fence_hi = q3 + 1.5 * (q3 - q1);
  std::vector<f64> kept;
  for (const f64 t : timings) {
    if (t >= fence_lo && t <= fence_hi) kept.push_back(t);
  }
  if (kept.empty()) kept = timings;  // degenerate spread: keep all
  return kept[kept.size() / 2];
}

/// A [rows x cols] matrix satisfying 1:4 along the row direction, the
/// layout both the CSC and the PE-packing kernels consume.
Tensor sparse_rows_matrix(i64 rows, i64 cols, u64 seed) {
  Rng rng(seed);
  Tensor w = Tensor::randn(Shape{rows, cols}, rng);
  NmMask mask = select_nm_mask(w, kSparse1of4, GroupAxis::kRows);
  apply_mask(w, mask);
  return w;
}

// --- csc_vecmat: host CSC column-dot kernel, row by row ---------------

BenchResult run_csc_vecmat(i64 batch, bool smoke) {
  const i64 rows = 256, cols = 64;
  const Tensor dense = sparse_rows_matrix(rows, cols, 101);
  const CscMatrix csc = CscMatrix::from_dense(dense);

  Rng rng(103);
  std::vector<std::vector<f32>> xs(static_cast<size_t>(batch));
  for (auto& x : xs) {
    x.resize(static_cast<size_t>(rows));
    for (f32& v : x) v = static_cast<f32>(rng.gaussian());
  }

  std::vector<std::vector<f32>> ys(static_cast<size_t>(batch));
  const f64 ns = time_ns_per_row(smoke ? 10 : 50, batch, [&]() {
    for (i64 b = 0; b < batch; ++b) {
      ys[static_cast<size_t>(b)] = csc.vecmat(xs[static_cast<size_t>(b)]);
    }
  });
  return {.kernel = "csc_vecmat", .batch = batch, .ns_op = ns};
}

// --- quantized_matmul: INT8 reference matvec over packed slots ---------

BenchResult run_quantized_matmul(i64 batch, bool smoke) {
  const i64 rows = 256, cols = 64;
  const Tensor dense = sparse_rows_matrix(rows, cols, 211);
  const NmPackedMatrix packed = NmPackedMatrix::pack(dense, kSparse1of4);
  const QuantizedNmMatrix q = QuantizedNmMatrix::from_packed(packed);

  Rng rng(223);
  std::vector<i8> acts(static_cast<size_t>(batch * rows));
  for (i8& a : acts) a = static_cast<i8>(rng.uniform_int(-127, 127));

  std::vector<std::vector<i32>> ys(static_cast<size_t>(batch));
  const f64 ns = time_ns_per_row(smoke ? 10 : 50, batch, [&]() {
    for (i64 b = 0; b < batch; ++b) {
      ys[static_cast<size_t>(b)] = q.reference_matvec(std::span<const i8>(
          acts.data() + b * rows, static_cast<size_t>(rows)));
    }
  });
  return {.kernel = "quantized_matmul", .batch = batch, .ns_op = ns};
}

// --- linear_matvec / mram_matvec: PE emulation through the core --------

BenchResult run_pe_matvec(PeKind kind, i64 batch, bool smoke) {
  const i64 out = 6, k = 64;
  Rng wrng(307);
  Tensor w = Tensor::randn(Shape{out, k}, wrng);
  NmMask mask = select_nm_mask(w, kSparse1of4, GroupAxis::kCols);
  apply_mask(w, mask);

  HybridCore core;
  PimMatmulLayer layer(core, w, kSparse1of4, kind, 0.05f);

  Rng rng(311);
  const Tensor x = Tensor::randn(Shape{batch, k}, rng, 0.0f, 1.0f);

  // Modeled makespan of one dispatch: the SIMT schedule of the batch's
  // rows over the PE pool. Deterministic — this is the gated number.
  (void)layer.matmul(x);
  const f64 makespan = static_cast<f64>(core.last_makespan());

  const f64 ns = time_ns_per_row(smoke ? 5 : 20, batch,
                                 [&]() { (void)layer.matmul(x); });
  return {.kernel = kind == PeKind::kSram ? "linear_matvec" : "mram_matvec",
          .batch = batch,
          .ns_op = ns,
          .modeled = makespan,
          .gated = true};
}

// --- raw vs modeled backend pair (two-tier executor, DESIGN §5i) -------

/// Benchmarks the same deployment through both executor backends at the
/// wall-clock gate's fixed shape (out=64, k=256, 1:4 sparse), first
/// proving the raw SIMD path bit-identical to the modeled walk. Returns
/// {raw, modeled}: the raw result's speedup is the wall-clock ratio
/// modeled_ns / raw_ns and carries wall_gated=true; the modeled result
/// gates the SIMT tile-parallel factor of the deployment.
std::pair<BenchResult, BenchResult> run_backend_pair(PeKind kind, i64 batch,
                                                     bool smoke) {
  const i64 out = 64, k = 256;
  Rng wrng(kind == PeKind::kSram ? 401 : 409);
  Tensor w = Tensor::randn(Shape{out, k}, wrng);
  NmMask mask = select_nm_mask(w, kSparse1of4, GroupAxis::kCols);
  apply_mask(w, mask);

  HybridCore modeled_core;
  PimMatmulLayer modeled_layer(modeled_core, w, kSparse1of4, kind, 0.05f);

  HybridCoreOptions raw_opts;
  raw_opts.backend = KernelBackend::kRaw;
  HybridCore raw_core(raw_opts);
  PimMatmulLayer raw_layer(raw_core, w, kSparse1of4, kind, 0.05f);

  Rng rng(421);
  const Tensor x = Tensor::randn(Shape{batch, k}, rng, 0.0f, 1.0f);

  // Bit-exactness first: a fast wrong answer must never publish a ns/op.
  const Tensor y_modeled = modeled_layer.matmul(x);
  const Tensor y_raw = raw_layer.matmul(x);
  for (i64 i = 0; i < y_modeled.numel(); ++i) {
    if (y_modeled[i] != y_raw[i]) {
      std::fprintf(stderr, "%s: raw backend diverged from modeled at %lld\n",
                   kind == PeKind::kSram ? "raw_quantized_matmul"
                                         : "raw_csc_traversal",
                   static_cast<long long>(i));
      std::exit(1);
    }
  }

  const i64 samples = smoke ? 5 : 9;
  const f64 modeled_ns = robust_ns_per_row(
      samples, smoke ? 2 : 5, batch, [&]() { (void)modeled_layer.matmul(x); });
  const f64 raw_ns = robust_ns_per_row(
      samples, smoke ? 10 : 30, batch, [&]() { (void)raw_layer.matmul(x); });

  // Average PEs the schedule keeps busy: the tile-parallel factor.
  const bool sram = kind == PeKind::kSram;
  const HybridCoreOptions core_opts;
  const i64 pe_pool = sram ? core_opts.sram_pe_pool
                           : core_opts.topology.mram_pes_per_core();
  BenchResult raw{.kernel = sram ? "raw_quantized_matmul" : "raw_csc_traversal",
                  .batch = batch,
                  .ns_op = raw_ns,
                  .speedup = modeled_ns / raw_ns,
                  .wall_gated = true};
  BenchResult modeled{
      .kernel = sram ? "modeled_quantized_matmul" : "modeled_csc_traversal",
      .batch = batch,
      .ns_op = modeled_ns,
      .modeled = modeled_core.last_utilization() * static_cast<f64>(pe_pool),
      .gated = true};
  return {raw, modeled};
}

// --- JSON out + baseline gate ------------------------------------------

std::string to_json(const std::vector<BenchResult>& results) {
  std::ostringstream os;
  os << "{\n  \"schema\": \"msh-bench-kernels-v3\",\n  \"results\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    char line[320];
    std::snprintf(line, sizeof(line),
                  "    {\"kernel\": \"%s\", \"batch\": %lld, "
                  "\"ns_op\": %.1f, \"modeled\": %.4f, \"speedup\": %.4f, "
                  "\"gated\": %s, \"wall_gated\": %s}%s\n",
                  r.kernel.c_str(), static_cast<long long>(r.batch), r.ns_op,
                  r.modeled, r.speedup, r.gated ? "true" : "false",
                  r.wall_gated ? "true" : "false",
                  i + 1 < results.size() ? "," : "");
    os << line;
  }
  os << "  ]\n}\n";
  return os.str();
}

/// Minimal field scanners for the baseline file (we control its format;
/// no JSON library in the repo). Both return false when the key is
/// missing from `block`.
bool find_number(const std::string& block, const std::string& key, f64* out) {
  const size_t at = block.find("\"" + key + "\"");
  if (at == std::string::npos) return false;
  const size_t colon = block.find(':', at);
  if (colon == std::string::npos) return false;
  *out = std::strtod(block.c_str() + colon + 1, nullptr);
  return true;
}

bool find_string(const std::string& block, const std::string& key,
                 std::string* out) {
  const size_t at = block.find("\"" + key + "\"");
  if (at == std::string::npos) return false;
  const size_t open = block.find('"', block.find(':', at));
  if (open == std::string::npos) return false;
  const size_t close = block.find('"', open + 1);
  if (close == std::string::npos) return false;
  *out = block.substr(open + 1, close - open - 1);
  return true;
}

/// One parsed gate entry from a baseline file.
struct BaselineGate {
  std::string kernel;
  i64 batch = 0;
  f64 modeled = 0.0;
  f64 ns_op = 0.0;
  bool has_modeled = false;
  bool has_ns_op = false;
};

/// Parses every `{"kernel": ...}` block out of a baseline file. Returns
/// false (with a named diagnostic) on a malformed entry.
bool parse_baseline_gates(const std::string& text,
                          std::vector<BaselineGate>* gates) {
  size_t pos = 0;
  while ((pos = text.find("{\"kernel\"", pos)) != std::string::npos) {
    const size_t end = text.find('}', pos);
    if (end == std::string::npos) break;
    const std::string block = text.substr(pos, end - pos + 1);
    pos = end + 1;

    BaselineGate gate;
    f64 batch = 0;
    if (!find_string(block, "kernel", &gate.kernel) ||
        !find_number(block, "batch", &batch)) {
      std::fprintf(stderr, "malformed baseline entry: %s\n", block.c_str());
      return false;
    }
    gate.batch = static_cast<i64>(batch);
    gate.has_modeled = find_number(block, "modeled", &gate.modeled);
    gate.has_ns_op = find_number(block, "ns_op", &gate.ns_op);
    gates->push_back(gate);
  }
  return true;
}

const BenchResult* find_result(const std::vector<BenchResult>& results,
                               const std::string& kernel, i64 batch) {
  for (const BenchResult& r : results) {
    if (r.kernel == kernel && r.batch == batch) {
      return &r;
    }
  }
  return nullptr;
}

bool baseline_has(const std::vector<BaselineGate>& gates,
                  const BenchResult& r) {
  for (const BaselineGate& g : gates) {
    if (g.kernel == r.kernel && g.batch == r.batch) {
      return true;
    }
  }
  return false;
}

/// Compares gated results against the baseline with zero tolerance: a
/// modeled value must equal its baseline at the 4 decimals the baseline
/// records (makespans are integers, so they compare exactly). Returns
/// the number of failures. Both directions are enforced: a baseline gate
/// with no measurement in this run fails (a deleted or renamed kernel
/// cannot silently pass), and a gated measurement with no baseline entry
/// fails (a new gated kernel cannot ship ungated).
int check_baseline(const std::vector<BenchResult>& results,
                   const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open baseline %s\n", path.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  std::vector<BaselineGate> gates;
  if (!parse_baseline_gates(text, &gates)) return 1;

  int failures = 0;
  for (const BaselineGate& gate : gates) {
    if (!gate.has_modeled) {
      std::fprintf(stderr, "baseline gate %s b=%lld: no modeled value\n",
                   gate.kernel.c_str(), static_cast<long long>(gate.batch));
      ++failures;
      continue;
    }
    const BenchResult* match = find_result(results, gate.kernel, gate.batch);
    if (match == nullptr) {
      std::fprintf(stderr,
                   "MISSING MEASUREMENT %s b=%lld: baseline gate has no "
                   "result in this run\n",
                   gate.kernel.c_str(), static_cast<long long>(gate.batch));
      ++failures;
      continue;
    }
    if (std::abs(match->modeled - gate.modeled) >= 0.5e-4) {
      std::fprintf(stderr,
                   "MODELED MISMATCH %s b=%lld: %.4f != baseline %.4f\n",
                   gate.kernel.c_str(), static_cast<long long>(gate.batch),
                   match->modeled, gate.modeled);
      ++failures;
    }
  }
  for (const BenchResult& r : results) {
    if (r.gated && !baseline_has(gates, r)) {
      std::fprintf(stderr,
                   "MISSING BASELINE %s b=%lld: gated measurement has no "
                   "baseline entry — refresh %s\n",
                   r.kernel.c_str(), static_cast<long long>(r.batch),
                   path.c_str());
      ++failures;
    }
  }
  std::printf("baseline check: %zu gates, %d failure(s), zero tolerance\n",
              gates.size(), failures);
  if (gates.empty()) {
    std::fprintf(stderr, "baseline %s contains no gates\n", path.c_str());
    return 1;
  }
  return failures;
}

/// Wall-clock gate: every baseline entry's ns_op bounds this run's
/// measurement (ns_op <= baseline * (1 + tolerance_pct/100)); both
/// missing-entry directions fail with named diagnostics; and min_speedup
/// enforces the raw backend's wall-clock advantage over the modeled
/// path at the largest gated batch. Returns the number of failures.
int check_wallclock(const std::vector<BenchResult>& results,
                    const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open wall-clock baseline %s\n", path.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  f64 tolerance_pct = 35.0;
  find_number(text, "tolerance_pct", &tolerance_pct);
  f64 min_speedup = 0.0;
  find_number(text, "min_speedup", &min_speedup);

  std::vector<BaselineGate> gates;
  if (!parse_baseline_gates(text, &gates)) return 1;

  int failures = 0;
  i64 max_batch = 0;
  for (const BaselineGate& gate : gates) {
    if (!gate.has_ns_op) {
      std::fprintf(stderr, "wall-clock gate %s b=%lld: no ns_op\n",
                   gate.kernel.c_str(), static_cast<long long>(gate.batch));
      ++failures;
      continue;
    }
    max_batch = std::max(max_batch, gate.batch);
    const BenchResult* match = find_result(results, gate.kernel, gate.batch);
    if (match == nullptr) {
      std::fprintf(stderr,
                   "MISSING MEASUREMENT %s b=%lld: wall-clock gate has no "
                   "result in this run\n",
                   gate.kernel.c_str(), static_cast<long long>(gate.batch));
      ++failures;
      continue;
    }
    const f64 ceiling = gate.ns_op * (1.0 + tolerance_pct / 100.0);
    if (match->ns_op > ceiling) {
      std::fprintf(stderr,
                   "WALL-CLOCK REGRESSION %s b=%lld: %.1f ns/row > "
                   "ceiling %.1f (baseline %.1f, tolerance %.0f%%)\n",
                   gate.kernel.c_str(), static_cast<long long>(gate.batch),
                   match->ns_op, ceiling,
                   gate.ns_op, tolerance_pct);
      ++failures;
    }
  }
  for (const BenchResult& r : results) {
    if (r.wall_gated && !baseline_has(gates, r)) {
      std::fprintf(stderr,
                   "MISSING BASELINE %s b=%lld: wall-gated measurement has "
                   "no baseline entry — refresh %s\n",
                   r.kernel.c_str(), static_cast<long long>(r.batch),
                   path.c_str());
      ++failures;
    }
  }
  if (min_speedup > 0.0) {
    for (const BenchResult& r : results) {
      if (!r.wall_gated || r.batch != max_batch) continue;
      if (r.speedup < min_speedup) {
        std::fprintf(stderr,
                     "SPEEDUP FLOOR %s b=%lld: raw backend %.2fx over "
                     "modeled < required %.2fx\n",
                     r.kernel.c_str(), static_cast<long long>(r.batch),
                     r.speedup, min_speedup);
        ++failures;
      }
    }
  }
  std::printf(
      "wall-clock check: %zu gates, %d failure(s), tolerance %.0f%%, "
      "min speedup %.1fx at batch %lld\n",
      gates.size(), failures, tolerance_pct, min_speedup,
      static_cast<long long>(max_batch));
  if (gates.empty()) {
    std::fprintf(stderr, "wall-clock baseline %s contains no gates\n",
                 path.c_str());
    return 1;
  }
  return failures;
}

/// Writes a fresh wall-clock baseline from this run's wall-gated
/// results (the baseline-refresh workflow's output). Policy knobs are
/// re-emitted at their documented defaults.
bool write_wallclock_baseline(const std::vector<BenchResult>& results,
                              const std::string& path) {
  std::ostringstream os;
  os << "{\n"
     << "  \"_policy\": [\n"
     << "    \"Wall-clock ns/op gates for the raw kernel backend "
        "(bench_kernels --check-wallclock).\",\n"
     << "    \"Each gate fails when measured ns_op exceeds baseline * "
        "(1 + tolerance_pct/100).\",\n"
     << "    \"tolerance_pct 35 absorbs hosted-runner noise on top of "
        "the median-of-N IQR-filtered timer.\",\n"
     << "    \"min_speedup gates the raw/modeled wall-clock ratio at "
        "the largest gated batch; it is\",\n"
     << "    \"host-independent, so it holds even when absolute ns_op "
        "drifts with runner hardware.\",\n"
     << "    \"Refresh via the baseline-refresh workflow "
        "(bench_kernels --refresh-wallclock).\"\n"
     << "  ],\n"
     << "  \"tolerance_pct\": 35,\n"
     << "  \"min_speedup\": 3.0,\n"
     << "  \"gates\": [\n";
  std::vector<const BenchResult*> walls;
  for (const BenchResult& r : results) {
    if (r.wall_gated) walls.push_back(&r);
  }
  for (size_t i = 0; i < walls.size(); ++i) {
    const BenchResult& r = *walls[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "    {\"kernel\": \"%s\", \"batch\": %lld, "
                  "\"ns_op\": %.1f}%s\n",
                  r.kernel.c_str(), static_cast<long long>(r.batch), r.ns_op,
                  i + 1 < walls.size() ? "," : "");
    os << line;
  }
  os << "  ]\n}\n";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << os.str();
  std::printf("refreshed wall-clock baseline %s (%zu gates)\n", path.c_str(),
              walls.size());
  return true;
}

}  // namespace
}  // namespace msh

int main(int argc, char** argv) {
  using namespace msh;

  std::string out_path = "BENCH_kernels.json";
  std::string baseline_path;
  std::string wallclock_path;
  std::string refresh_path;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--check-wallclock") == 0 &&
               i + 1 < argc) {
      wallclock_path = argv[++i];
    } else if (std::strcmp(argv[i], "--refresh-wallclock") == 0 &&
               i + 1 < argc) {
      refresh_path = argv[++i];
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_kernels [--out FILE] [--check BASELINE] "
                   "[--check-wallclock BASELINE] "
                   "[--refresh-wallclock FILE] [--smoke]\n");
      return 1;
    }
  }

  std::vector<BenchResult> results;
  for (const i64 batch : kBatchSweep) {
    results.push_back(run_csc_vecmat(batch, smoke));
    results.push_back(run_quantized_matmul(batch, smoke));
    results.push_back(run_pe_matvec(PeKind::kSram, batch, smoke));
    results.push_back(run_pe_matvec(PeKind::kMram, batch, smoke));
  }
  for (const i64 batch : kBatchSweep) {
    for (const PeKind kind : {PeKind::kSram, PeKind::kMram}) {
      auto [raw, modeled] = run_backend_pair(kind, batch, smoke);
      results.push_back(raw);
      results.push_back(modeled);
    }
  }

  std::printf("%-26s %5s %12s %10s %9s %6s %5s\n", "kernel", "batch",
              "ns/row", "modeled", "speedup", "gated", "wall");
  for (const BenchResult& r : results) {
    std::printf("%-26s %5lld %12.1f %10.4f %9.4f %6s %5s\n", r.kernel.c_str(),
                static_cast<long long>(r.batch), r.ns_op, r.modeled,
                r.speedup, r.gated ? "yes" : "no",
                r.wall_gated ? "yes" : "no");
  }
  std::printf("\nbit-exactness: every raw backend run matched the modeled "
              "walk exactly.\n");

  const std::string json = to_json(results);
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << json;
  out.close();
  std::printf("wrote %s (%zu results)\n", out_path.c_str(), results.size());

  if (!refresh_path.empty() &&
      !write_wallclock_baseline(results, refresh_path)) {
    return 1;
  }
  int failures = 0;
  if (!baseline_path.empty()) {
    failures += check_baseline(results, baseline_path);
  }
  if (!wallclock_path.empty()) {
    failures += check_wallclock(results, wallclock_path);
  }
  return failures == 0 ? 0 : 1;
}
