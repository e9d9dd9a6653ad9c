// Shift accumulator: compensates bit-serial input precision (paper Fig 3).
// Partial sums arrive once per input bit plane; the accumulator applies
// the bit weight 2^b, with the MSB plane subtracted for two's-complement
// signed activations.
#pragma once

#include "common/types.h"

namespace msh {

/// `Acc` holds the accumulator: i64 for one output, or a GCC/Clang
/// vector of integer lanes, which the modeled SRAM walk uses to weigh a
/// block of activation lanes' plane sums side by side.
template <typename Acc = i64>
class ShiftAccumulator {
 public:
  explicit ShiftAccumulator(i32 input_bits = 8) : input_bits_(input_bits) {
    MSH_REQUIRE(input_bits_ >= 1 && input_bits_ <= 32);
  }

  i32 input_bits() const { return input_bits_; }

  void reset() { acc_ = Acc{}; }
  /// Accumulates one bit-plane partial sum at significance `bit`.
  void accumulate(Acc partial_sum, i32 bit) {
    MSH_REQUIRE(bit >= 0 && bit < input_bits_);
    const Acc shifted = partial_sum << bit;
    // Two's complement: the MSB bit plane carries negative weight.
    acc_ += (bit == input_bits_ - 1) ? -shifted : shifted;
  }
  Acc value() const { return acc_; }

 private:
  i32 input_bits_;
  Acc acc_{};
};

}  // namespace msh
