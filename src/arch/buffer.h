// Core-local activation buffer with access accounting. The buffer
// implements the row-stationary reuse policy (paper §3 / Eyeriss [21]):
// an activation row is fetched from the bus once and served to every PE
// pass that needs it, so bus traffic scales with unique rows, not reads.
#pragma once

#include <span>

#include "common/types.h"

namespace msh {

class ActivationBuffer {
 public:
  explicit ActivationBuffer(i64 capacity_bytes);

  i64 capacity_bytes() const { return capacity_bytes_; }

  /// Loads a dense INT8 activation vector of `bytes` bytes; evicts the
  /// previous contents. Returns false (and loads nothing) if it does not
  /// fit. Only the fill is accounted: no caller reads the contents back.
  bool load(i64 bytes);
  bool load(std::span<const i8> activations) {
    return load(static_cast<i64>(activations.size()));
  }

  /// Records a PE-side read of `bytes` from the buffer.
  void record_read(i64 bytes) { bytes_read_ += bytes; }

  i64 bytes_loaded() const { return bytes_loaded_; }  ///< bus-side fills
  i64 bytes_read() const { return bytes_read_; }      ///< PE-side reads

  /// Reuse factor achieved by row-stationary buffering.
  f64 reuse() const {
    return bytes_loaded_ == 0 ? 0.0
                              : static_cast<f64>(bytes_read_) /
                                    static_cast<f64>(bytes_loaded_);
  }

 private:
  i64 capacity_bytes_;
  i64 bytes_loaded_ = 0;
  i64 bytes_read_ = 0;
};

}  // namespace msh
