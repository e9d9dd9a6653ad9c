#include "kernels/adder_tree.h"

namespace msh {

AdderTree::AdderTree(i64 inputs) : inputs_(inputs) {
  MSH_REQUIRE(inputs_ >= 1);
  depth_ = 0;
  i64 span = 1;
  while (span < inputs_) {
    span <<= 1;
    ++depth_;
  }
  stage_.resize(static_cast<size_t>(inputs_));
}

i32 AdderTree::reduce(std::span<const i32> values) {
  MSH_REQUIRE(static_cast<i64>(values.size()) <= inputs_);
  if (values.empty()) return 0;
  // The first stage adds the input pairs straight into the stage buffer.
  // Node i of the next stage sums nodes 2i and 2i+1 of this one; writing
  // left to right never overwrites a node this stage still reads.
  size_t width = values.size();
  for (size_t i = 0; i + 1 < width; i += 2)
    stage_[i / 2] = static_cast<i64>(values[i]) + values[i + 1];
  if (width % 2) stage_[width / 2] = values[width - 1];
  for (width = (width + 1) / 2; width > 1; width = (width + 1) / 2) {
    for (size_t i = 0; i + 1 < width; i += 2)
      stage_[i / 2] = stage_[i] + stage_[i + 1];
    if (width % 2) stage_[width / 2] = stage_[width - 1];
  }
  return static_cast<i32>(stage_.front());
}

}  // namespace msh
