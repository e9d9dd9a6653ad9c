// Digital adder tree: the column-wise reduction network of both PE types.
// Functionally a sum, which the walks compute directly; structurally a
// binary tree whose depth sets the pipeline latency.
#pragma once

#include "common/types.h"

namespace msh {

class AdderTree {
 public:
  /// `inputs` is the leaf count (the tile height for the SRAM PE column
  /// groups).
  explicit AdderTree(i64 inputs) : inputs_(inputs) {
    MSH_REQUIRE(inputs_ >= 1);
    for (i64 span = 1; span < inputs_; span <<= 1) ++depth_;
  }

  i64 inputs() const { return inputs_; }
  /// Tree depth in adder stages: ceil(log2(inputs)).
  i64 depth() const { return depth_; }

 private:
  i64 inputs_;
  i64 depth_ = 0;
};

}  // namespace msh
