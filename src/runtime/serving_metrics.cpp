#include "runtime/serving_metrics.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/stopwatch.h"

namespace msh {

namespace {
constexpr f64 kFirstBoundUs = 1.0;
constexpr f64 kGrowth = 1.4;
}  // namespace

f64 LatencyHistogram::bucket_bound_us(i64 i) {
  return kFirstBoundUs * std::pow(kGrowth, static_cast<f64>(i));
}

void LatencyHistogram::record(f64 latency_us) {
  latency_us = std::max(latency_us, 0.0);
  i64 idx = 0;
  while (idx < kBuckets - 1 && latency_us >= bucket_bound_us(idx)) ++idx;
  buckets_[static_cast<size_t>(idx)] += 1;
  count_ += 1;
  sum_us_ += latency_us;
  max_us_ = std::max(max_us_, latency_us);
}

f64 LatencyHistogram::percentile_us(f64 p) const {
  MSH_REQUIRE(p >= 0.0 && p <= 100.0);
  if (count_ == 0) return 0.0;
  const i64 rank =
      std::max<i64>(1, static_cast<i64>(std::ceil(p / 100.0 * count_)));
  i64 seen = 0;
  for (i64 i = 0; i < kBuckets; ++i) {
    seen += buckets_[static_cast<size_t>(i)];
    if (seen >= rank) return std::min(bucket_bound_us(i), max_us_);
  }
  return max_us_;
}

ServingMetrics::ServingMetrics() : start_us_(monotonic_now_us()) {}

void ServingMetrics::record_completed(Priority priority, i64 rows,
                                      f64 queue_us, f64 total_us) {
  const std::lock_guard<std::mutex> guard(mutex_);
  completed_requests_ += 1;
  completed_rows_ += rows;
  queue_latency_.record(queue_us);
  total_latency_.record(total_us);
  ClassCounters& cls = classes_[static_cast<size_t>(priority)];
  cls.completed += 1;
  cls.total_latency.record(total_us);
}

void ServingMetrics::record_rejected(Priority priority) {
  const std::lock_guard<std::mutex> guard(mutex_);
  rejected_requests_ += 1;
  classes_[static_cast<size_t>(priority)].rejected += 1;
}

void ServingMetrics::record_shed(Priority priority, i64 rows) {
  (void)rows;
  const std::lock_guard<std::mutex> guard(mutex_);
  shed_requests_ += 1;
  classes_[static_cast<size_t>(priority)].shed += 1;
}

void ServingMetrics::record_failed(Priority priority, i64 rows) {
  (void)rows;
  const std::lock_guard<std::mutex> guard(mutex_);
  failed_requests_ += 1;
  classes_[static_cast<size_t>(priority)].failed += 1;
}

void ServingMetrics::record_timed_out(Priority priority, i64 rows) {
  (void)rows;
  const std::lock_guard<std::mutex> guard(mutex_);
  timed_out_requests_ += 1;
  classes_[static_cast<size_t>(priority)].timed_out += 1;
}

void ServingMetrics::record_retry() {
  const std::lock_guard<std::mutex> guard(mutex_);
  retries_ += 1;
}

void ServingMetrics::record_heal() {
  const std::lock_guard<std::mutex> guard(mutex_);
  heals_ += 1;
}

void ServingMetrics::record_scrub(i64 corrected, i64 detected_uncorrectable,
                                  i64 silent) {
  const std::lock_guard<std::mutex> guard(mutex_);
  scrubs_ += 1;
  ecc_corrected_ += corrected;
  ecc_detected_uncorrectable_ += detected_uncorrectable;
  ecc_silent_ += silent;
}

void ServingMetrics::record_shadow(bool match) {
  const std::lock_guard<std::mutex> guard(mutex_);
  shadow_checks_ += 1;
  if (!match) shadow_mismatches_ += 1;
}

void ServingMetrics::record_batch(i64 rows, BatchClose reason) {
  MSH_REQUIRE(rows >= 0);
  const std::lock_guard<std::mutex> guard(mutex_);
  batches_ += 1;
  batch_close_reasons_[static_cast<size_t>(reason)] += 1;
  if (static_cast<size_t>(rows) >= batch_rows_histogram_.size())
    batch_rows_histogram_.resize(static_cast<size_t>(rows) + 1, 0);
  batch_rows_histogram_[static_cast<size_t>(rows)] += 1;
}

void ServingMetrics::sample_queue_depth(i64 depth) {
  const std::lock_guard<std::mutex> guard(mutex_);
  queue_depth_samples_ += 1;
  queue_depth_sum_ += static_cast<f64>(depth);
  queue_depth_max_ = std::max(queue_depth_max_, depth);
}

void ServingMetrics::record_breaker_open() {
  const std::lock_guard<std::mutex> guard(mutex_);
  breaker_opens_ += 1;
}

void ServingMetrics::record_breaker_half_open() {
  const std::lock_guard<std::mutex> guard(mutex_);
  breaker_half_opens_ += 1;
}

void ServingMetrics::record_breaker_close() {
  const std::lock_guard<std::mutex> guard(mutex_);
  breaker_closes_ += 1;
}

void ServingMetrics::record_swap(bool ok, i64 workers_swapped,
                                 i64 rollbacks) {
  const std::lock_guard<std::mutex> guard(mutex_);
  swaps_attempted_ += 1;
  if (ok) {
    swaps_completed_ += 1;
  } else {
    swaps_failed_ += 1;
  }
  swap_workers_swapped_ += workers_swapped;
  swap_rollbacks_ += rollbacks;
}

void ServingMetrics::record_power_loss(Priority priority) {
  const std::lock_guard<std::mutex> guard(mutex_);
  recovery_.power_loss_requests += 1;
  classes_[static_cast<size_t>(priority)].power_loss += 1;
}

void ServingMetrics::record_outage(i64 sram_bytes_wiped,
                                   i64 mram_bits_drifted) {
  const std::lock_guard<std::mutex> guard(mutex_);
  recovery_.outages += 1;
  recovery_.sram_bytes_wiped += sram_bytes_wiped;
  recovery_.mram_bits_drifted += mram_bits_drifted;
}

void ServingMetrics::record_recovery(f64 rto_us, i64 workers_warm,
                                     i64 workers_cold,
                                     i64 sram_cells_restored,
                                     i64 ecc_corrected, i64 ecc_refetched) {
  const std::lock_guard<std::mutex> guard(mutex_);
  recovery_.recoveries += 1;
  recovery_.workers_warm += workers_warm;
  recovery_.workers_cold += workers_cold;
  recovery_.last_rto_us = rto_us;
  recovery_.max_rto_us = std::max(recovery_.max_rto_us, rto_us);
  recovery_.total_rto_us += rto_us;
  recovery_.sram_cells_restored += sram_cells_restored;
  recovery_.ecc_corrected += ecc_corrected;
  recovery_.ecc_refetched += ecc_refetched;
}

void ServingMetrics::record_journal_replay(i64 records, i64 bytes_dropped) {
  const std::lock_guard<std::mutex> guard(mutex_);
  recovery_.journal_replays += 1;
  recovery_.journal_records_replayed += records;
  recovery_.journal_bytes_dropped += bytes_dropped;
}

void ServingMetrics::record_training_baseline(f64 accuracy) {
  const std::lock_guard<std::mutex> guard(mutex_);
  lane_.active = true;
  lane_.baseline_accuracy = accuracy;
  lane_.last_accuracy = accuracy;
  lane_.best_accuracy = accuracy;
}

void ServingMetrics::record_training_step(f64 loss, i64 samples) {
  const std::lock_guard<std::mutex> guard(mutex_);
  lane_.active = true;
  lane_.steps += 1;
  lane_.samples += samples;
  lane_.last_loss = loss;
}

void ServingMetrics::record_training_round(f64 mean_loss,
                                           f64 holdout_accuracy,
                                           i64 pe_cycles,
                                           i64 slots_written) {
  const std::lock_guard<std::mutex> guard(mutex_);
  lane_.active = true;
  lane_.rounds += 1;
  lane_.last_accuracy = holdout_accuracy;
  lane_.best_accuracy = std::max(lane_.best_accuracy, holdout_accuracy);
  lane_.train_pe_cycles += pe_cycles;
  lane_.slots_written += slots_written;
  lane_.loss_trajectory.push_back(mean_loss);
  lane_.accuracy_trajectory.push_back(holdout_accuracy);
}

void ServingMetrics::record_training_publish(bool ok) {
  const std::lock_guard<std::mutex> guard(mutex_);
  lane_.active = true;
  if (ok) {
    lane_.publishes += 1;
  } else {
    lane_.publish_failures += 1;
  }
}

void ServingMetrics::record_training_rollback() {
  const std::lock_guard<std::mutex> guard(mutex_);
  lane_.active = true;
  lane_.rollbacks += 1;
}

void ServingMetrics::record_training_slice(f64 busy_us, f64 idle_us) {
  const std::lock_guard<std::mutex> guard(mutex_);
  lane_.active = true;
  lane_.busy_us += busy_us;
  lane_.idle_us += idle_us;
}

void ServingMetrics::update_wear(const WearTotals& totals) {
  const std::lock_guard<std::mutex> guard(mutex_);
  wear_.active = true;
  wear_.totals = totals;
}

void ServingMetrics::record_worker_degraded() {
  const std::lock_guard<std::mutex> guard(mutex_);
  wear_.active = true;
  wear_.workers_degraded += 1;
}

MetricsSnapshot ServingMetrics::snapshot() const {
  const std::lock_guard<std::mutex> guard(mutex_);
  MetricsSnapshot s;
  s.completed_requests = completed_requests_;
  s.completed_rows = completed_rows_;
  s.rejected_requests = rejected_requests_;
  s.shed_requests = shed_requests_;
  s.failed_requests = failed_requests_;
  s.timed_out_requests = timed_out_requests_;
  s.batches = batches_;
  s.retries = retries_;
  s.heals = heals_;
  s.scrubs = scrubs_;
  s.ecc_corrected = ecc_corrected_;
  s.ecc_detected_uncorrectable = ecc_detected_uncorrectable_;
  s.ecc_silent = ecc_silent_;
  s.shadow_checks = shadow_checks_;
  s.shadow_mismatches = shadow_mismatches_;
  s.breaker_opens = breaker_opens_;
  s.breaker_half_opens = breaker_half_opens_;
  s.breaker_closes = breaker_closes_;
  s.swaps_attempted = swaps_attempted_;
  s.swaps_completed = swaps_completed_;
  s.swaps_failed = swaps_failed_;
  s.swap_workers_swapped = swap_workers_swapped_;
  s.swap_rollbacks = swap_rollbacks_;
  s.elapsed_s = (monotonic_now_us() - start_us_) / 1e6;
  if (s.elapsed_s > 0.0) {
    s.throughput_rps = completed_requests_ / s.elapsed_s;
    s.throughput_images_per_s = completed_rows_ / s.elapsed_s;
  }
  s.queue_latency = queue_latency_;
  s.total_latency = total_latency_;
  s.classes = classes_;
  s.batch_rows_histogram = batch_rows_histogram_;
  s.batch_close_reasons = batch_close_reasons_;
  s.queue_depth_samples = queue_depth_samples_;
  s.queue_depth_mean =
      queue_depth_samples_ == 0 ? 0.0
                                : queue_depth_sum_ / queue_depth_samples_;
  s.queue_depth_max = queue_depth_max_;
  s.training_lane = lane_;
  s.recovery = recovery_;
  s.wear = wear_;
  return s;
}

namespace {

void append_latency_json(std::ostringstream& os, const char* key,
                         const LatencyHistogram& h,
                         bool include_buckets = false) {
  os << '"' << key << "\":{\"count\":" << h.count()
     << ",\"mean_us\":" << h.mean_us() << ",\"max_us\":" << h.max_us()
     << ",\"p50_us\":" << h.percentile_us(50.0)
     << ",\"p95_us\":" << h.percentile_us(95.0)
     << ",\"p99_us\":" << h.percentile_us(99.0);
  if (include_buckets) {
    // Trailing zero buckets are trimmed; bucket i spans
    // [bucket_bound_us(i-1), bucket_bound_us(i)).
    i64 last = -1;
    for (i64 i = 0; i < LatencyHistogram::kBuckets; ++i)
      if (h.buckets()[static_cast<size_t>(i)] > 0) last = i;
    os << ",\"buckets\":[";
    for (i64 i = 0; i <= last; ++i) {
      if (i) os << ',';
      os << h.buckets()[static_cast<size_t>(i)];
    }
    os << ']';
  }
  os << '}';
}

void append_class_json(std::ostringstream& os, const char* key,
                       const ClassCounters& cls) {
  os << '"' << key << "\":{\"completed\":" << cls.completed
     << ",\"rejected\":" << cls.rejected << ",\"shed\":" << cls.shed
     << ",\"failed\":" << cls.failed << ",\"timed_out\":" << cls.timed_out
     << ",\"power_loss\":" << cls.power_loss << ',';
  append_latency_json(os, "total_latency_us", cls.total_latency,
                      /*include_buckets=*/true);
  os << '}';
}

}  // namespace

std::string ServingMetrics::to_json(const MetricsSnapshot& s) {
  std::ostringstream os;
  os << "{\"elapsed_s\":" << s.elapsed_s
     << ",\"requests\":{\"completed\":" << s.completed_requests
     << ",\"rejected\":" << s.rejected_requests
     << ",\"shed\":" << s.shed_requests
     << ",\"failed\":" << s.failed_requests
     << ",\"timed_out\":" << s.timed_out_requests
     << ",\"power_loss\":" << s.recovery.power_loss_requests << '}'
     << ",\"resilience\":{\"retries\":" << s.retries
     << ",\"heals\":" << s.heals << ",\"scrubs\":" << s.scrubs
     << ",\"ecc_corrected\":" << s.ecc_corrected
     << ",\"ecc_detected_uncorrectable\":" << s.ecc_detected_uncorrectable
     << ",\"ecc_silent\":" << s.ecc_silent
     << ",\"shadow_checks\":" << s.shadow_checks
     << ",\"shadow_mismatches\":" << s.shadow_mismatches << '}'
     << ",\"breaker\":{\"opens\":" << s.breaker_opens
     << ",\"half_opens\":" << s.breaker_half_opens
     << ",\"closes\":" << s.breaker_closes << '}'
     << ",\"swaps\":{\"attempted\":" << s.swaps_attempted
     << ",\"completed\":" << s.swaps_completed
     << ",\"failed\":" << s.swaps_failed
     << ",\"workers_swapped\":" << s.swap_workers_swapped
     << ",\"rollbacks\":" << s.swap_rollbacks << '}'
     << ",\"recovery\":{\"outages\":" << s.recovery.outages
     << ",\"power_loss_requests\":" << s.recovery.power_loss_requests
     << ",\"recoveries\":" << s.recovery.recoveries
     << ",\"workers_warm\":" << s.recovery.workers_warm
     << ",\"workers_cold\":" << s.recovery.workers_cold
     << ",\"last_rto_us\":" << s.recovery.last_rto_us
     << ",\"max_rto_us\":" << s.recovery.max_rto_us
     << ",\"total_rto_us\":" << s.recovery.total_rto_us
     << ",\"sram_bytes_wiped\":" << s.recovery.sram_bytes_wiped
     << ",\"sram_cells_restored\":" << s.recovery.sram_cells_restored
     << ",\"mram_bits_drifted\":" << s.recovery.mram_bits_drifted
     << ",\"ecc_corrected\":" << s.recovery.ecc_corrected
     << ",\"ecc_refetched\":" << s.recovery.ecc_refetched
     << ",\"journal_replays\":" << s.recovery.journal_replays
     << ",\"journal_records_replayed\":"
     << s.recovery.journal_records_replayed
     << ",\"journal_bytes_dropped\":" << s.recovery.journal_bytes_dropped
     << '}'
     << ",\"images\":" << s.completed_rows
     << ",\"throughput\":{\"requests_per_s\":" << s.throughput_rps
     << ",\"images_per_s\":" << s.throughput_images_per_s << '}'
     << ",\"latency_us\":{";
  append_latency_json(os, "queue", s.queue_latency);
  os << ',';
  append_latency_json(os, "total", s.total_latency,
                      /*include_buckets=*/true);
  os << "},\"classes\":{";
  for (i64 c = 0; c < kPriorityClasses; ++c) {
    if (c) os << ',';
    append_class_json(os, to_string(static_cast<Priority>(c)),
                      s.classes[static_cast<size_t>(c)]);
  }
  os << "},\"batches\":{\"count\":" << s.batches << ",\"rows_histogram\":[";
  for (size_t i = 0; i < s.batch_rows_histogram.size(); ++i) {
    if (i) os << ',';
    os << s.batch_rows_histogram[i];
  }
  os << "],\"close_reasons\":{";
  for (i64 r = 0; r < kBatchCloseReasons; ++r) {
    if (r) os << ',';
    os << '"' << to_string(static_cast<BatchClose>(r))
       << "\":" << s.batch_close_reasons[static_cast<size_t>(r)];
  }
  os << "}},\"queue_depth\":{\"samples\":" << s.queue_depth_samples
     << ",\"mean\":" << s.queue_depth_mean << ",\"max\":" << s.queue_depth_max
     << '}';
  const TrainingLaneCounters& lane = s.training_lane;
  os << ",\"training_lane\":{\"active\":" << (lane.active ? "true" : "false")
     << ",\"steps\":" << lane.steps << ",\"samples\":" << lane.samples
     << ",\"rounds\":" << lane.rounds << ",\"last_loss\":" << lane.last_loss
     << ",\"baseline_accuracy\":" << lane.baseline_accuracy
     << ",\"last_accuracy\":" << lane.last_accuracy
     << ",\"best_accuracy\":" << lane.best_accuracy
     << ",\"publishes\":" << lane.publishes
     << ",\"publish_failures\":" << lane.publish_failures
     << ",\"rollbacks\":" << lane.rollbacks
     << ",\"train_pe_cycles\":" << lane.train_pe_cycles
     << ",\"slots_written\":" << lane.slots_written
     << ",\"busy_us\":" << lane.busy_us << ",\"idle_us\":" << lane.idle_us
     << ",\"steal_ratio\":" << lane.steal_ratio() << ",\"loss_trajectory\":[";
  for (size_t i = 0; i < lane.loss_trajectory.size(); ++i) {
    if (i) os << ',';
    os << lane.loss_trajectory[i];
  }
  os << "],\"accuracy_trajectory\":[";
  for (size_t i = 0; i < lane.accuracy_trajectory.size(); ++i) {
    if (i) os << ',';
    os << lane.accuracy_trajectory[i];
  }
  os << "]},\"wear\":" << wear_to_json(s.wear) << '}';
  return os.str();
}

std::string ServingMetrics::wear_to_json(const WearCounters& wear) {
  const WearTotals& t = wear.totals;
  std::ostringstream os;
  os << "{\"active\":" << (wear.active ? "true" : "false")
     << ",\"words_tracked\":" << t.words_tracked
     << ",\"words_written_by_path\":{";
  for (i64 p = 0; p < kWearPaths; ++p) {
    if (p) os << ',';
    os << '"' << to_string(static_cast<WearPath>(p))
       << "\":" << t.words_written_by_path[static_cast<size_t>(p)];
  }
  os << "},\"words_written\":" << t.words_written_total()
     << ",\"words_skipped\":" << t.words_skipped
     << ",\"delta_savings_ratio\":" << t.delta_savings_ratio()
     << ",\"pulses\":" << t.pulses << ",\"retries\":" << t.retries
     << ",\"attempts_histogram\":[";
  for (size_t i = 0; i < t.attempts_histogram.size(); ++i) {
    if (i) os << ',';
    os << t.attempts_histogram[i];
  }
  os << "],\"verify_failures\":" << t.verify_failures
     << ",\"stuck_writes\":" << t.stuck_writes
     << ",\"broken_words\":" << t.broken_words
     << ",\"banks_remapped\":" << t.banks_remapped
     << ",\"banks_degraded\":" << t.banks_degraded
     << ",\"max_word_writes\":" << t.max_word_writes
     << ",\"max_wear_fraction\":" << t.max_wear_fraction
     << ",\"energy_pj\":" << t.energy_pj
     << ",\"workers_degraded\":" << wear.workers_degraded << '}';
  return os.str();
}

}  // namespace msh
