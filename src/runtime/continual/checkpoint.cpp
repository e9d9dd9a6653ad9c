#include "runtime/continual/checkpoint.h"

#include <sstream>

#include "common/byte_cursor.h"

namespace msh {

namespace {

constexpr u32 kMagic = 0x4348534Du;  // "MSHC" little-endian
constexpr u32 kVersion = 1;

template <typename T>
void put(std::string& out, const T& value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof(T));
}

void put_tensors(std::string& out, const std::vector<Tensor>& tensors) {
  put(out, static_cast<u64>(tensors.size()));
  for (const Tensor& t : tensors) {
    put(out, static_cast<u32>(t.shape().rank()));
    for (const i64 d : t.shape().dims()) put(out, d);
    out.append(reinterpret_cast<const char*>(t.data()),
               static_cast<size_t>(t.numel()) * sizeof(f32));
  }
}

std::vector<Tensor> get_tensors(ByteCursor& cur, const char* what) {
  const u64 count = cur.pod<u64>(what);
  if (count > 1u << 20)
    cur.fail(std::string("implausible ") + what + " tensor count");
  std::vector<Tensor> out;
  out.reserve(count);
  for (u64 i = 0; i < count; ++i) {
    const u32 rank = cur.pod<u32>(what);
    if (rank > 8) cur.fail(std::string("implausible ") + what + " rank");
    std::vector<i64> dims(rank);
    for (i64& d : dims) {
      d = cur.pod<i64>(what);
      if (d <= 0) cur.fail(std::string("implausible ") + what + " dim");
    }
    // A wrapped or unbacked element count is rejected before the tensor
    // is allocated.
    const size_t numel = cur.count(dims, sizeof(f32), what);
    Tensor t{Shape(dims)};
    cur.bytes(t.data(), numel * sizeof(f32), what);
    out.push_back(std::move(t));
  }
  return out;
}

}  // namespace

std::string LearnerCheckpoint::serialize() const {
  std::string out;
  put(out, kMagic);
  put(out, kVersion);
  put(out, rounds);
  put(out, steps);
  put(out, samples_streamed);
  put(out, publishes);
  put(out, rollbacks);
  put(out, baseline_accuracy);
  put(out, best_accuracy);
  put(out, last_accuracy);
  put(out, image_generation);
  put_tensors(out, params);
  put_tensors(out, velocity);
  return out;
}

LearnerCheckpoint LearnerCheckpoint::deserialize(
    const std::string& blob, const std::string& context) {
  ByteCursor cur(blob.data(), blob.size(), "LearnerCheckpoint", context);
  if (cur.pod<u32>("magic") != kMagic) cur.fail("bad magic");
  const u32 version = cur.pod<u32>("version");
  if (version != kVersion)
    cur.fail("unsupported version " + std::to_string(version));
  LearnerCheckpoint cp;
  cp.rounds = cur.pod<i64>("rounds");
  cp.steps = cur.pod<i64>("steps");
  cp.samples_streamed = cur.pod<i64>("samples_streamed");
  cp.publishes = cur.pod<i64>("publishes");
  cp.rollbacks = cur.pod<i64>("rollbacks");
  cp.baseline_accuracy = cur.pod<f64>("baseline_accuracy");
  cp.best_accuracy = cur.pod<f64>("best_accuracy");
  cp.last_accuracy = cur.pod<f64>("last_accuracy");
  cp.image_generation = cur.pod<u64>("image_generation");
  cp.params = get_tensors(cur, "params");
  cp.velocity = get_tensors(cur, "velocity");
  if (cur.remaining() != 0) cur.fail("trailing garbage");
  return cp;
}

}  // namespace msh
