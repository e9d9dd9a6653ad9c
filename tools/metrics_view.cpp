// metrics_view — renders the serving runtime's metrics JSON (the schema
// emitted by ServingMetrics::to_json and printed by the serving benches)
// as human-readable tables with per-class latency histograms.
//
//   metrics_view <metrics.json>     read from a file
//   metrics_view -                  read from stdin (pipe a bench's
//                                   "metrics JSON" line into it)
//
// Self-contained: ships its own minimal JSON reader (objects, arrays,
// numbers, strings, bools) so the tool adds no dependency. Unknown keys
// are ignored, so newer schema additions never break older viewers.
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/table.h"
#include "common/types.h"
#include "runtime/serving_metrics.h"

namespace msh {
namespace {

// ---------------------------------------------------------------------
// Minimal JSON reader. Enough for the metrics schema; throws
// SimulationError with a byte offset on malformed input.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  f64 number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool has(const std::string& key) const { return object.count(key) > 0; }
  /// Object member lookup; a static null stands in for missing keys so
  /// chained lookups on older/partial files degrade to zeros.
  const JsonValue& at(const std::string& key) const {
    static const JsonValue null;
    const auto it = object.find(key);
    return it == object.end() ? null : it->second;
  }
  f64 num(const std::string& key) const { return at(key).number; }
  i64 count(const std::string& key) const {
    return static_cast<i64>(at(key).number);
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  /// Parses the first complete JSON value; trailing text is ignored so a
  /// bench report with prose after the JSON block still renders.
  JsonValue parse() { return parse_value(); }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw SimulationError("metrics_view: JSON error at byte " +
                          std::to_string(pos_) + ": " + why);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return parse_string();
      case 't': case 'f': return parse_bool();
      case 'n': return parse_null();
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    JsonValue value;
    value.kind = JsonValue::Kind::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') { ++pos_; return value; }
    while (true) {
      skip_ws();
      JsonValue key = parse_string();
      skip_ws();
      expect(':');
      value.object[key.string] = parse_value();
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      expect('}');
      return value;
    }
  }

  JsonValue parse_array() {
    JsonValue value;
    value.kind = JsonValue::Kind::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') { ++pos_; return value; }
    while (true) {
      value.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      expect(']');
      return value;
    }
  }

  JsonValue parse_string() {
    JsonValue value;
    value.kind = JsonValue::Kind::kString;
    expect('"');
    while (peek() != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        const char esc = peek();
        ++pos_;
        switch (esc) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          default: fail("unsupported escape");
        }
      }
      value.string.push_back(c);
    }
    ++pos_;
    return value;
  }

  JsonValue parse_bool() {
    JsonValue value;
    value.kind = JsonValue::Kind::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      value.boolean = true;
      pos_ += 4;
    } else if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
    } else {
      fail("bad literal");
    }
    return value;
  }

  JsonValue parse_null() {
    if (text_.compare(pos_, 4, "null") != 0) fail("bad literal");
    pos_ += 4;
    return JsonValue{};
  }

  JsonValue parse_number() {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            std::strchr("+-.eE", text_[pos_]) != nullptr))
      ++pos_;
    if (pos_ == start) fail("expected a value");
    JsonValue value;
    value.kind = JsonValue::Kind::kNumber;
    try {
      value.number = std::stod(text_.substr(start, pos_ - start));
    } catch (const std::exception&) {
      fail("bad number");
    }
    return value;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------
// Rendering.

std::string format_us(f64 us) {
  if (us >= 1e6) return AsciiTable::num(us / 1e6, 2) + " s";
  if (us >= 1e3) return AsciiTable::num(us / 1e3, 2) + " ms";
  return AsciiTable::num(us, 0) + " us";
}

void print_requests(const JsonValue& root) {
  const JsonValue& requests = root.at("requests");
  AsciiTable table({"outcome", "count"});
  table.add_row({"completed", std::to_string(requests.count("completed"))});
  table.add_row({"rejected", std::to_string(requests.count("rejected"))});
  table.add_row({"shed", std::to_string(requests.count("shed"))});
  table.add_row({"timed out", std::to_string(requests.count("timed_out"))});
  table.add_row({"failed", std::to_string(requests.count("failed"))});
  std::printf("requests (%.1f s, %.1f req/s, %.1f img/s)\n%s\n",
              root.num("elapsed_s"),
              root.at("throughput").num("requests_per_s"),
              root.at("throughput").num("images_per_s"),
              table.render().c_str());
}

void print_classes(const JsonValue& root) {
  const JsonValue& classes = root.at("classes");
  if (classes.object.empty()) return;
  AsciiTable table({"class", "completed", "rejected", "shed", "timed out",
                    "failed", "mean", "p50", "p95", "p99"});
  for (const char* name : {"interactive", "batch", "best_effort"}) {
    if (!classes.has(name)) continue;
    const JsonValue& cls = classes.at(name);
    const JsonValue& latency = cls.at("total_latency_us");
    table.add_row({name, std::to_string(cls.count("completed")),
                   std::to_string(cls.count("rejected")),
                   std::to_string(cls.count("shed")),
                   std::to_string(cls.count("timed_out")),
                   std::to_string(cls.count("failed")),
                   format_us(latency.num("mean_us")),
                   format_us(latency.num("p50_us")),
                   format_us(latency.num("p95_us")),
                   format_us(latency.num("p99_us"))});
  }
  std::printf("priority classes\n%s\n", table.render().c_str());
}

/// One histogram row: bucket upper bound, count, and a proportional bar.
void print_histogram(const char* title, const JsonValue& latency) {
  const JsonValue& buckets = latency.at("buckets");
  if (buckets.array.empty()) return;
  i64 peak = 0;
  for (const JsonValue& b : buckets.array)
    peak = std::max(peak, static_cast<i64>(b.number));
  if (peak == 0) return;
  std::printf("%s latency histogram (count %lld, max %s)\n", title,
              static_cast<long long>(latency.count("count")),
              format_us(latency.num("max_us")).c_str());
  constexpr i64 kBarWidth = 40;
  for (size_t i = 0; i < buckets.array.size(); ++i) {
    const i64 count = static_cast<i64>(buckets.array[i].number);
    if (count == 0) continue;
    const i64 width =
        std::max<i64>(1, count * kBarWidth / std::max<i64>(peak, 1));
    std::printf("  <= %9s | %-*s %lld\n",
                format_us(LatencyHistogram::bucket_bound_us(
                              static_cast<i64>(i)))
                    .c_str(),
                static_cast<int>(kBarWidth),
                std::string(static_cast<size_t>(width), '#').c_str(),
                static_cast<long long>(count));
  }
  std::printf("\n");
}

void print_resilience(const JsonValue& root) {
  const JsonValue& resilience = root.at("resilience");
  const JsonValue& breaker = root.at("breaker");
  const JsonValue& swaps = root.at("swaps");
  AsciiTable table({"counter", "value"});
  table.add_row({"retries", std::to_string(resilience.count("retries"))});
  table.add_row({"heals", std::to_string(resilience.count("heals"))});
  table.add_row({"scrubs", std::to_string(resilience.count("scrubs"))});
  table.add_row(
      {"ecc corrected", std::to_string(resilience.count("ecc_corrected"))});
  table.add_row({"ecc uncorrectable",
                 std::to_string(
                     resilience.count("ecc_detected_uncorrectable"))});
  table.add_row(
      {"ecc silent", std::to_string(resilience.count("ecc_silent"))});
  table.add_row({"shadow checks",
                 std::to_string(resilience.count("shadow_checks"))});
  table.add_row({"shadow mismatches",
                 std::to_string(resilience.count("shadow_mismatches"))});
  table.add_row(
      {"breaker opens", std::to_string(breaker.count("opens"))});
  table.add_row(
      {"breaker half-opens", std::to_string(breaker.count("half_opens"))});
  table.add_row(
      {"breaker closes", std::to_string(breaker.count("closes"))});
  table.add_row(
      {"swaps attempted", std::to_string(swaps.count("attempted"))});
  table.add_row(
      {"swaps completed", std::to_string(swaps.count("completed"))});
  table.add_row({"swap workers promoted",
                 std::to_string(swaps.count("workers_swapped"))});
  table.add_row(
      {"swap rollbacks", std::to_string(swaps.count("rollbacks"))});
  std::printf("resilience & lifecycle\n%s\n", table.render().c_str());
}

void print_recovery(const JsonValue& root) {
  if (!root.has("recovery")) return;  // pre-recovery-layer metrics file
  const JsonValue& recovery = root.at("recovery");
  if (recovery.count("outages") == 0 && recovery.count("recoveries") == 0)
    return;  // no power interruption ever recorded; skip the section
  AsciiTable table({"counter", "value"});
  table.add_row({"outages", std::to_string(recovery.count("outages"))});
  table.add_row({"requests killed (power loss)",
                 std::to_string(recovery.count("power_loss_requests"))});
  table.add_row(
      {"recoveries", std::to_string(recovery.count("recoveries"))});
  table.add_row(
      {"workers warm", std::to_string(recovery.count("workers_warm"))});
  table.add_row(
      {"workers cold", std::to_string(recovery.count("workers_cold"))});
  table.add_row({"last RTO", format_us(recovery.num("last_rto_us"))});
  table.add_row({"max RTO", format_us(recovery.num("max_rto_us"))});
  table.add_row(
      {"total recovery time", format_us(recovery.num("total_rto_us"))});
  table.add_row({"SRAM bytes wiped",
                 std::to_string(recovery.count("sram_bytes_wiped"))});
  table.add_row({"SRAM cells restored",
                 std::to_string(recovery.count("sram_cells_restored"))});
  table.add_row({"MRAM bits drifted",
                 std::to_string(recovery.count("mram_bits_drifted"))});
  table.add_row({"ecc corrected (recovery scrub)",
                 std::to_string(recovery.count("ecc_corrected"))});
  table.add_row({"ecc refetched from golden",
                 std::to_string(recovery.count("ecc_refetched"))});
  table.add_row({"journal replays",
                 std::to_string(recovery.count("journal_replays"))});
  table.add_row({"journal records replayed",
                 std::to_string(recovery.count("journal_records_replayed"))});
  table.add_row({"journal bytes dropped (torn)",
                 std::to_string(recovery.count("journal_bytes_dropped"))});
  std::printf("power-interruption recovery\n%s\n", table.render().c_str());
}

/// Min-max scaled ASCII sparkline over a numeric JSON array (same glyph
/// ramp the train-while-serve bench prints, lowest to highest).
std::string sparkline(const JsonValue& series) {
  static const char kLevels[] = "_.-=*#";
  if (series.array.empty()) return "(empty)";
  f64 lo = series.array.front().number;
  f64 hi = lo;
  for (const JsonValue& v : series.array) {
    lo = std::min(lo, v.number);
    hi = std::max(hi, v.number);
  }
  const f64 span = hi - lo;
  std::string out;
  for (const JsonValue& v : series.array) {
    const f64 t = span <= 0.0 ? 0.0 : (v.number - lo) / span;
    const size_t level = std::min<size_t>(
        sizeof(kLevels) - 2, static_cast<size_t>(t * (sizeof(kLevels) - 1)));
    out.push_back(kLevels[level]);
  }
  return out;
}

void print_training_lane(const JsonValue& root) {
  const JsonValue& lane = root.at("training_lane");
  if (lane.object.empty()) return;  // pre-lane metrics file
  if (!lane.at("active").boolean && lane.count("rounds") == 0) {
    std::printf("training lane: inactive\n\n");
    return;
  }
  AsciiTable table({"counter", "value"});
  table.add_row({"active", lane.at("active").boolean ? "yes" : "no"});
  table.add_row({"steps", std::to_string(lane.count("steps"))});
  table.add_row({"samples", std::to_string(lane.count("samples"))});
  table.add_row({"rounds", std::to_string(lane.count("rounds"))});
  table.add_row({"last loss", AsciiTable::num(lane.num("last_loss"), 4)});
  table.add_row({"baseline accuracy",
                 AsciiTable::num(lane.num("baseline_accuracy"), 3)});
  table.add_row(
      {"last accuracy", AsciiTable::num(lane.num("last_accuracy"), 3)});
  table.add_row(
      {"best accuracy", AsciiTable::num(lane.num("best_accuracy"), 3)});
  table.add_row({"publishes", std::to_string(lane.count("publishes"))});
  table.add_row(
      {"publish failures", std::to_string(lane.count("publish_failures"))});
  table.add_row({"rollbacks", std::to_string(lane.count("rollbacks"))});
  table.add_row(
      {"train PE cycles", std::to_string(lane.count("train_pe_cycles"))});
  table.add_row(
      {"PE slots written", std::to_string(lane.count("slots_written"))});
  table.add_row({"busy", format_us(lane.num("busy_us"))});
  table.add_row({"idle (duty-cycle)", format_us(lane.num("idle_us"))});
  table.add_row(
      {"steal ratio", AsciiTable::num(lane.num("steal_ratio"), 3)});
  std::printf("training lane\n%s\n", table.render().c_str());
  const JsonValue& loss = lane.at("loss_trajectory");
  const JsonValue& accuracy = lane.at("accuracy_trajectory");
  if (!loss.array.empty() || !accuracy.array.empty()) {
    std::printf("  loss / round      %s\n", sparkline(loss).c_str());
    std::printf("  accuracy / round  %s\n\n", sparkline(accuracy).c_str());
  }
}

void print_wear(const JsonValue& root) {
  if (!root.has("wear")) return;  // pre-endurance metrics file
  const JsonValue& wear = root.at("wear");
  if (!wear.at("active").boolean) return;  // wear tracking was off
  AsciiTable table({"counter", "value"});
  table.add_row(
      {"words tracked", std::to_string(wear.count("words_tracked"))});
  const JsonValue& by_path = wear.at("words_written_by_path");
  for (const char* path :
       {"deploy", "swap", "heal", "scrub", "publish", "recovery"}) {
    if (!by_path.has(path)) continue;
    table.add_row({std::string("words written: ") + path,
                   std::to_string(by_path.count(path))});
  }
  table.add_row(
      {"words written (total)", std::to_string(wear.count("words_written"))});
  table.add_row({"words skipped (delta)",
                 std::to_string(wear.count("words_skipped"))});
  table.add_row({"delta savings ratio",
                 AsciiTable::num(wear.num("delta_savings_ratio"), 3)});
  table.add_row({"pulses", std::to_string(wear.count("pulses"))});
  table.add_row({"retries", std::to_string(wear.count("retries"))});
  table.add_row(
      {"verify failures", std::to_string(wear.count("verify_failures"))});
  table.add_row(
      {"stuck writes", std::to_string(wear.count("stuck_writes"))});
  table.add_row(
      {"broken words", std::to_string(wear.count("broken_words"))});
  table.add_row(
      {"banks remapped", std::to_string(wear.count("banks_remapped"))});
  table.add_row(
      {"banks degraded", std::to_string(wear.count("banks_degraded"))});
  table.add_row(
      {"max word writes", std::to_string(wear.count("max_word_writes"))});
  table.add_row({"max wear fraction",
                 AsciiTable::num(wear.num("max_wear_fraction"), 4)});
  table.add_row({"write energy (pJ)", AsciiTable::num(wear.num("energy_pj"), 1)});
  table.add_row(
      {"workers degraded", std::to_string(wear.count("workers_degraded"))});
  std::printf("mram endurance (wear)\n%s\n", table.render().c_str());
  const JsonValue& attempts = wear.at("attempts_histogram");
  if (!attempts.array.empty()) {
    std::printf("  write attempts: ");
    for (size_t i = 0; i < attempts.array.size(); ++i) {
      if (i) std::printf(", ");
      std::printf("%zu pulse%s x %lld", i + 1, i == 0 ? "" : "s",
                  static_cast<long long>(attempts.array[i].number));
    }
    std::printf("\n\n");
  }
}

int view(const std::string& text) {
  // The benches print the JSON embedded in a report; tolerate that by
  // starting at the first '{'.
  const size_t brace = text.find('{');
  if (brace == std::string::npos) {
    std::fprintf(stderr, "metrics_view: no JSON object in input\n");
    return 2;
  }
  JsonValue root = JsonParser(text.substr(brace)).parse();

  print_requests(root);
  print_classes(root);
  print_resilience(root);
  print_recovery(root);
  print_training_lane(root);
  print_wear(root);
  print_histogram("overall", root.at("latency_us").at("total"));
  const JsonValue& classes = root.at("classes");
  for (const char* name : {"interactive", "batch", "best_effort"}) {
    if (classes.has(name))
      print_histogram(name, classes.at(name).at("total_latency_us"));
  }
  return 0;
}

}  // namespace
}  // namespace msh

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr,
                 "usage: metrics_view <metrics.json>  (or '-' for stdin)\n");
    return 2;
  }
  std::string text;
  if (std::string(argv[1]) == "-") {
    std::ostringstream sink;
    sink << std::cin.rdbuf();
    text = sink.str();
  } else {
    std::ifstream file(argv[1]);
    if (!file) {
      std::fprintf(stderr, "metrics_view: cannot open %s\n", argv[1]);
      return 2;
    }
    std::ostringstream sink;
    sink << file.rdbuf();
    text = sink.str();
  }
  try {
    return msh::view(text);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
}
