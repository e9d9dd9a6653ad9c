// Metric table, attempt accounting, sample statistics and the span
// recorder.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <stdexcept>
#include <thread>

#include "bench.h"

namespace perfbench {

void Metrics::set(const std::string& name, f64 value,
                  const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

f64 Metrics::get(const std::string& name) const {
  for (const Entry& e : entries_)
    if (e.name == name) return e.value;
  throw std::out_of_range("perfbench: metric '" + name + "' was not set");
}

std::string Metrics::to_json() const {
  std::string out = "{";
  char number[64];
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    if (std::isfinite(e.value)) {
      std::snprintf(number, sizeof(number), "%.17g", e.value);
    } else {
      std::snprintf(number, sizeof(number), "null");
    }
    out += (i == 0 ? "\"" : ", \"") + e.name + "\": {\"value\": " + number +
           ", \"unit\": \"" + e.unit + "\"}";
  }
  return out + "}";
}

std::string Metrics::to_table() const {
  std::string out;
  char line[256];
  for (const Entry& e : entries_) {
    std::snprintf(line, sizeof(line), "#   %-52s %16.6g %s\n", e.name.c_str(),
                  e.value, e.unit.c_str());
    out += line;
  }
  return out;
}

void Tally::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failed <= 5) std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
}

f64 percentile(std::vector<f64> samples, f64 p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const f64 pos = std::clamp(p, 0.0, 100.0) / 100.0 *
                  static_cast<f64>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  if (lo + 1 >= samples.size()) return samples.back();
  const f64 frac = pos - static_cast<f64>(lo);
  return samples[lo] + frac * (samples[lo + 1] - samples[lo]);
}

f64 median(std::vector<f64> samples) {
  return percentile(std::move(samples), 50.0);
}

f64 mean(const std::vector<f64>& samples) {
  if (samples.empty()) return 0.0;
  f64 sum = 0.0;
  for (f64 v : samples) sum += v;
  return sum / static_cast<f64>(samples.size());
}

i64 Tracer::add(std::string name, f64 start_us, f64 end_us, i64 parent,
                u64 request) {
  const size_t thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({std::move(name), start_us, end_us, parent, request, thread});
  return static_cast<i64>(spans_.size()) - 1;
}

void Tracer::set_end(i64 id, f64 end_us) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.at(static_cast<size_t>(id)).end_us = end_us;
}

void Tracer::write_chrome_json(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("perfbench: cannot write " + path);
  // Small stable thread ids in order of first appearance.
  std::map<size_t, i64> tids;
  f64 origin = spans_.empty() ? 0.0 : spans_.front().start_us;
  for (const Span& s : spans_) origin = std::min(origin, s.start_us);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  char buf[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const i64 tid =
        tids.emplace(s.thread, static_cast<i64>(tids.size()) + 1).first->second;
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %lld, "
                  "\"args\": {\"id\": %zu, \"parent\": %lld, \"request\": "
                  "%llu}}",
                  i == 0 ? "" : ",\n", s.name.c_str(),
                  s.name.substr(0, s.name.find('.')).c_str(),
                  s.start_us - origin, s.end_us - s.start_us,
                  static_cast<long long>(tid), i,
                  static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.request));
    out << buf;
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("perfbench: short write to " + path);
}

}  // namespace perfbench
