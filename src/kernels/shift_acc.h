// Shift accumulator: compensates bit-serial input precision (paper Fig 3).
// Partial sums arrive once per input bit plane; the accumulator applies
// the bit weight 2^b, with the MSB plane subtracted for two's-complement
// signed activations.
#pragma once

#include "common/types.h"

namespace msh {

class ShiftAccumulator {
 public:
  explicit ShiftAccumulator(i32 input_bits = 8);

  i32 input_bits() const { return input_bits_; }

  void reset() { acc_ = 0; }
  /// Accumulates one bit-plane partial sum at significance `bit`.
  void accumulate(i32 partial_sum, i32 bit) {
    MSH_REQUIRE(bit >= 0 && bit < input_bits_);
    const i64 shifted = static_cast<i64>(partial_sum) << bit;
    // Two's complement: the MSB bit plane carries negative weight.
    acc_ += (bit == input_bits_ - 1) ? -shifted : shifted;
  }
  i64 value() const { return acc_; }

 private:
  i32 input_bits_;
  i64 acc_ = 0;
};

}  // namespace msh
