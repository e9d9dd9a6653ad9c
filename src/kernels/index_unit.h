// Index generation and comparison (paper §3.1 step 2): each column group
// owns an index generator that cycles through the M in-group positions;
// per-row comparators match it against the 4-bit index stored next to
// each compressed weight and gate that row's partial product into the
// adder tree.
#pragma once

#include <span>

#include "common/types.h"

namespace msh {

/// Cycles 0, 1, ..., period-1, 0, ... — one step per index phase.
class IndexGenerator {
 public:
  explicit IndexGenerator(i32 period);

  i32 period() const { return period_; }
  i32 current() const { return current_; }
  void step();
  void reset() { current_ = 0; }

 private:
  i32 period_;
  i32 current_ = 0;
};

/// One column group's bank of row comparators.
class ComparatorColumn {
 public:
  explicit ComparatorColumn(i64 rows);

  i64 rows() const { return rows_; }

  /// Compares the generated index against the stored index of each row
  /// of a contiguous run of the group's rows (all of them, or one
  /// adder-tree segment) and writes the per-row match mask into `match`.
  /// `valid` marks rows holding real (non-padding) entries.
  void compare(std::span<const u8> stored_indices, std::span<const u8> valid,
               i32 generated, std::span<u8> match) const {
    MSH_REQUIRE(static_cast<i64>(stored_indices.size()) <= rows_);
    MSH_REQUIRE(valid.size() == stored_indices.size());
    MSH_REQUIRE(match.size() == stored_indices.size());
    for (size_t r = 0; r < match.size(); ++r)
      match[r] = valid[r] && stored_indices[r] == generated;
  }

 private:
  i64 rows_;
};

}  // namespace msh
