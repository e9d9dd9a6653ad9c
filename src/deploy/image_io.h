// Deployment image serialization: the compressed, quantized weight
// matrices a device ships in flash and programs into its PE arrays at
// boot. A simple little-endian binary container of named
// QuantizedNmMatrix entries.
//
// Format (version 3, the only one read or written):
//   "MSHI" | u32 version |
//   u64 generation (durable-state snapshot counter) |
//   u64 entry_count |
//   per entry: u64 name_len | name bytes |
//              i32 n | i32 m | i64 dense_rows | i64 cols | f32 scale |
//              values  (packed_rows * cols x i8)
//              indices (packed_rows * cols x u8)
//              valid   (packed_rows * cols x u8, 0/1)
//   u32 crc32 (IEEE, over every preceding byte)
//
// save() is atomic: the image is serialized to a sibling temp file and
// renamed over the target, so a crash mid-save never clobbers a good
// image. load() parses the structure with a bounded cursor first and
// only then checks the CRC, so the three corruption classes raise
// *distinct* errors a recovery path can tell apart:
//   - short read / truncation  -> "truncated ..." (never aliases as CRC)
//   - bytes past the last entry -> "trailing garbage"
//   - payload bit-rot           -> "CRC mismatch"
#pragma once

#include <map>
#include <string>

#include "mapping/quantized_nm.h"

namespace msh {

class DeploymentImage {
 public:
  static constexpr u32 kVersion = 3;

  /// Adds (or replaces) a named matrix.
  void add(const std::string& name, QuantizedNmMatrix matrix);

  bool contains(const std::string& name) const;
  const QuantizedNmMatrix& get(const std::string& name) const;
  i64 size() const { return static_cast<i64>(entries_.size()); }
  std::vector<std::string> names() const;

  /// Total payload bytes the stored slots occupy (value+index+valid).
  i64 payload_bytes() const;

  /// Durable-state snapshot counter carried in the header (0 for
  /// freshly exported images). Monotonically assigned by the
  /// recovery layer's DurableState; lets a loader rank snapshot files
  /// and a resumed learner report how far behind its checkpoint is.
  u64 generation() const { return generation_; }
  void set_generation(u64 generation) { generation_ = generation; }

  /// Serializes the container to bytes (what save() writes).
  std::string serialize() const;

  /// Parses bytes produced by serialize(). `context` names the source in
  /// error messages (a path, or "<memory>"). Throws SimulationError with
  /// the distinct error classes documented above.
  static DeploymentImage deserialize(const std::string& blob,
                                     const std::string& context);

  /// Writes/reads the container. Throws SimulationError on I/O or format
  /// problems (bad magic, unsupported version, truncation, trailing
  /// garbage, CRC mismatch).
  void save(const std::string& path) const;
  static DeploymentImage load(const std::string& path);

 private:
  std::map<std::string, QuantizedNmMatrix> entries_;
  u64 generation_ = 0;
};

}  // namespace msh
