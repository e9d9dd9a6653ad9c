#include "pim/sram_pe.h"

#include <algorithm>

namespace msh {

SramSparsePe::SramSparsePe() {}

void SramSparsePe::load(SramPeTile tile) {
  MSH_REQUIRE(!tile.empty());
  MSH_REQUIRE(tile.cfg.valid());
  MSH_REQUIRE(static_cast<i64>(tile.weights.size()) ==
              tile.rows * tile.groups);
  MSH_REQUIRE(tile.segment_rows >= 1 && tile.segment_rows <= tile.rows);
  MSH_REQUIRE(tile.rows % tile.segment_rows == 0);
  MSH_REQUIRE(static_cast<i64>(tile.output_id.size()) ==
              tile.total_segments());
  const i64 pair_bits = 8 + tile.cfg.index_bits();
  i64 valid_slots = 0;
  for (u8 v : tile.valid) valid_slots += v;
  events_.sram_weight_bits_written += valid_slots * pair_bits;
  events_.sram_write_row_ops += tile.rows;  // row-parallel write sweep
  events_.cycles += tile.rows;
  tile_ = std::move(tile);
}

SramPeOutput SramSparsePe::matvec(std::span<const i8> activations) {
  MSH_REQUIRE(loaded());
  return modeled_sram_matvec(tile_, activations, events_);
}

}  // namespace msh
