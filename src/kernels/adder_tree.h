// Digital adder tree: the column-wise reduction network of both PE types.
// Functionally a sum; structurally a binary tree whose depth sets the
// pipeline latency and whose node count sets per-op energy.
#pragma once

#include <span>
#include <vector>

#include "common/types.h"

namespace msh {

class AdderTree {
 public:
  /// `inputs` is the leaf count (the tile height for the SRAM PE column
  /// groups). Sizes the tree's stage buffer once.
  explicit AdderTree(i64 inputs);

  i64 inputs() const { return inputs_; }
  /// Tree depth in adder stages: ceil(log2(inputs)).
  i64 depth() const { return depth_; }
  /// Total 2-input adder nodes (inputs - 1 for a full reduction tree).
  i64 node_count() const { return inputs_ - 1; }

  /// Performs one reduction, emulating the tree stage by stage: each
  /// stage adds neighbouring pairs (an odd tail passes through) in place
  /// on the tree's fixed stage buffer, so it allocates nothing.
  i32 reduce(std::span<const i32> values);

 private:
  i64 inputs_;
  i64 depth_;
  std::vector<i64> stage_;  ///< [inputs] node values of the current stage
};

}  // namespace msh
