#include "kernels/shift_acc.h"

namespace msh {

ShiftAccumulator::ShiftAccumulator(i32 input_bits) : input_bits_(input_bits) {
  MSH_REQUIRE(input_bits_ >= 1 && input_bits_ <= 32);
}

}  // namespace msh
