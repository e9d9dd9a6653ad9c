#include "deploy/image_io.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/byte_cursor.h"
#include "common/crc32.h"
#include "common/logging.h"

namespace msh {

namespace {

constexpr char kMagic[4] = {'M', 'S', 'H', 'I'};

template <typename T>
void write_pod(std::ostream& os, const T& value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

std::string hex32(u32 value) {
  char buf[11];
  std::snprintf(buf, sizeof(buf), "0x%08x", value);
  return buf;
}

}  // namespace

void DeploymentImage::add(const std::string& name, QuantizedNmMatrix matrix) {
  MSH_REQUIRE(!name.empty());
  entries_.insert_or_assign(name, std::move(matrix));
}

bool DeploymentImage::contains(const std::string& name) const {
  return entries_.count(name) > 0;
}

const QuantizedNmMatrix& DeploymentImage::get(const std::string& name) const {
  const auto it = entries_.find(name);
  if (it == entries_.end())
    throw ContractError("DeploymentImage: no entry '" + name + "'");
  return it->second;
}

std::vector<std::string> DeploymentImage::names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, matrix] : entries_) names.push_back(name);
  return names;
}

i64 DeploymentImage::payload_bytes() const {
  i64 bytes = 0;
  for (const auto& [name, matrix] : entries_)
    bytes += 3 * matrix.packed_rows() * matrix.cols();
  return bytes;
}

std::string DeploymentImage::serialize() const {
  std::ostringstream buf(std::ios::binary);
  buf.write(kMagic, 4);
  write_pod(buf, kVersion);
  write_pod(buf, generation_);
  write_pod(buf, static_cast<u64>(entries_.size()));
  for (const auto& [name, matrix] : entries_) {
    write_pod(buf, static_cast<u64>(name.size()));
    buf.write(name.data(), static_cast<std::streamsize>(name.size()));
    write_pod(buf, static_cast<i32>(matrix.config().n));
    write_pod(buf, static_cast<i32>(matrix.config().m));
    write_pod(buf, matrix.dense_rows());
    write_pod(buf, matrix.cols());
    write_pod(buf, matrix.scale());
    const auto values = matrix.raw_values();
    const auto indices = matrix.raw_indices();
    const auto valid = matrix.raw_valid();
    buf.write(reinterpret_cast<const char*>(values.data()),
              static_cast<std::streamsize>(values.size()));
    buf.write(reinterpret_cast<const char*>(indices.data()),
              static_cast<std::streamsize>(indices.size()));
    buf.write(reinterpret_cast<const char*>(valid.data()),
              static_cast<std::streamsize>(valid.size()));
  }
  std::string body = buf.str();
  const u32 crc = crc32(body.data(), body.size());
  body.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  return body;
}

DeploymentImage DeploymentImage::deserialize(const std::string& blob,
                                             const std::string& context) {
  if (blob.size() < 4 + sizeof(u32)) {
    throw SimulationError("DeploymentImage: truncated header in " + context +
                          " (short read: " + std::to_string(blob.size()) +
                          " byte(s))");
  }
  if (std::memcmp(blob.data(), kMagic, 4) != 0)
    throw SimulationError("DeploymentImage: bad magic in " + context);
  u32 version = 0;
  std::memcpy(&version, blob.data() + 4, sizeof(version));
  if (version != kVersion)
    throw SimulationError("DeploymentImage: unsupported version " +
                          std::to_string(version) + " in " + context);

  // Structural parse first, with a bounded cursor over everything except
  // the CRC footer; only a file that parses clean with exactly zero
  // leftover bytes reaches the CRC check. This is what keeps the three
  // corruption classes distinct: truncation trips the cursor, surplus
  // bytes trip the trailing-garbage check, and bit-rot in a structurally
  // intact file trips the CRC.
  const size_t footer = sizeof(u32);
  if (blob.size() < 4 + sizeof(u32) + footer) {
    throw SimulationError("DeploymentImage: truncated footer in " + context +
                          " (short read)");
  }
  ByteCursor cur(blob.data(), blob.size() - footer, "DeploymentImage",
                 context);
  cur.pod<u32>("magic");  // magic + version, validated above
  cur.pod<u32>("version");

  DeploymentImage image;
  image.generation_ = cur.pod<u64>("generation");
  const u64 count = cur.pod<u64>("entry count");
  for (u64 e = 0; e < count; ++e) {
    const u64 name_len = cur.pod<u64>("entry name length");
    if (name_len == 0 || name_len > 4096) cur.fail("implausible name length");
    std::string name(name_len, '\0');
    cur.bytes(name.data(), name_len, "entry name");

    NmConfig cfg;
    cfg.n = cur.pod<i32>("entry header");
    cfg.m = cur.pod<i32>("entry header");
    const i64 dense_rows = cur.pod<i64>("entry header");
    const i64 cols = cur.pod<i64>("entry header");
    const f32 scale = cur.pod<f32>("entry header");
    if (!cfg.valid() || dense_rows <= 0 || cols <= 0 ||
        dense_rows % cfg.m != 0) {
      cur.fail("corrupt entry header");
    }
    // Each payload holds one byte per packed slot; a wrapped or unbacked
    // slot count is rejected before anything is allocated.
    const i64 slots[] = {dense_rows / cfg.m, cfg.n, cols};
    const size_t total = cur.count(slots, 1, "values payload");
    auto values = cur.vec<i8>(total, "values payload");
    auto indices = cur.vec<u8>(total, "indices payload");
    auto valid = cur.vec<u8>(total, "valid payload");
    image.add(name,
              QuantizedNmMatrix::from_raw(cfg, dense_rows, cols, scale,
                                          std::move(values),
                                          std::move(indices),
                                          std::move(valid)));
  }
  if (cur.remaining() != 0) {
    cur.fail("trailing garbage",
             " (" + std::to_string(cur.remaining()) +
                 " byte(s) past the last entry): refusing a tampered image");
  }

  u32 stored = 0;
  std::memcpy(&stored, blob.data() + blob.size() - sizeof(stored),
              sizeof(stored));
  const u32 computed = crc32(blob.data(), blob.size() - sizeof(stored));
  if (stored != computed) {
    throw SimulationError(
        "DeploymentImage: CRC mismatch in " + context + " (stored " +
        hex32(stored) + ", computed " + hex32(computed) +
        "): refusing to deploy a corrupt image");
  }
  log_debug("DeploymentImage: parsed v", version, " image from ", context,
            " (", image.size(), " entries, generation ", image.generation_,
            ", CRC ok)");
  return image;
}

void DeploymentImage::save(const std::string& path) const {
  // Serialize to memory first: the CRC footer covers the whole body, and
  // the temp-file + rename publish below needs a single complete write.
  const std::string body = serialize();

  // Atomic publish: write a sibling temp file, then rename over the
  // target. A crash mid-save leaves the old image intact; readers never
  // observe a half-written file.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) throw SimulationError("DeploymentImage: cannot open " + tmp);
    os.write(body.data(), static_cast<std::streamsize>(body.size()));
    os.flush();
    if (!os) {
      std::remove(tmp.c_str());
      throw SimulationError("DeploymentImage: write failed: " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw SimulationError("DeploymentImage: cannot publish " + path);
  }
}

DeploymentImage DeploymentImage::load(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw SimulationError("DeploymentImage: cannot open " + path);
  std::ostringstream sink(std::ios::binary);
  sink << file.rdbuf();
  return deserialize(sink.str(), path);
}

}  // namespace msh
