#include "deploy/journal.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/crc32.h"

namespace msh {

namespace {

constexpr u32 kFrameMagic = 0x4A48534Du;  // "MSHJ" little-endian

constexpr size_t kHeaderBytes = 3 * sizeof(u32);

}  // namespace

Journal::Journal(std::string path) : path_(std::move(path)) {
  MSH_REQUIRE(!path_.empty());
}

void Journal::append(std::string_view payload, i64 torn_after_bytes) {
  std::string frame;
  frame.reserve(kHeaderBytes + payload.size());
  const u32 magic = kFrameMagic;
  const u32 len = static_cast<u32>(payload.size());
  const u32 crc = crc32(payload.data(), payload.size());
  frame.append(reinterpret_cast<const char*>(&magic), sizeof(magic));
  frame.append(reinterpret_cast<const char*>(&len), sizeof(len));
  frame.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  frame.append(payload.data(), payload.size());

  const size_t write_bytes =
      torn_after_bytes >= 0
          ? std::min(frame.size(), static_cast<size_t>(torn_after_bytes))
          : frame.size();
  std::ofstream os(path_, std::ios::binary | std::ios::app);
  if (!os) throw SimulationError("Journal: cannot open " + path_);
  os.write(frame.data(), static_cast<std::streamsize>(write_bytes));
  os.flush();
  if (!os) throw SimulationError("Journal: append failed: " + path_);
}

void Journal::reset() {
  std::ofstream os(path_, std::ios::binary | std::ios::trunc);
  if (!os) throw SimulationError("Journal: cannot truncate " + path_);
}

JournalReplay Journal::replay(const std::string& path) {
  JournalReplay out;
  std::ifstream file(path, std::ios::binary);
  if (!file) return out;  // no journal yet: empty, not an error
  std::ostringstream sink(std::ios::binary);
  sink << file.rdbuf();
  const std::string blob = sink.str();

  size_t pos = 0;
  while (pos < blob.size()) {
    // Stop at the first frame that cannot be intact; everything after it
    // is unrecoverable tail (a torn append, or garbage behind one).
    if (blob.size() - pos < kHeaderBytes) break;
    u32 magic = 0, len = 0, crc = 0;
    std::memcpy(&magic, blob.data() + pos, sizeof(magic));
    std::memcpy(&len, blob.data() + pos + sizeof(u32), sizeof(len));
    std::memcpy(&crc, blob.data() + pos + 2 * sizeof(u32), sizeof(crc));
    if (magic != kFrameMagic) break;
    if (blob.size() - pos - kHeaderBytes < len) break;
    const char* payload = blob.data() + pos + kHeaderBytes;
    if (crc32(payload, len) != crc) break;
    out.records.emplace_back(payload, len);
    pos += kHeaderBytes + len;
  }
  out.bytes_replayed = static_cast<i64>(pos);
  out.bytes_dropped = static_cast<i64>(blob.size() - pos);
  out.tail_torn = out.bytes_dropped > 0;
  return out;
}

}  // namespace msh
