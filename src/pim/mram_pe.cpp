#include "pim/mram_pe.h"

namespace msh {

namespace {
/// Hamming distance between two (weight, index, valid) entries' encodings.
i64 changed_bits(const MramPeTile::RowEntry& a,
                 const MramPeTile::RowEntry& b, i64 index_bits) {
  i64 bits = 0;
  const u8 wa = static_cast<u8>(a.weight), wb = static_cast<u8>(b.weight);
  for (i32 i = 0; i < 8; ++i) bits += ((wa >> i) & 1) != ((wb >> i) & 1);
  for (i64 i = 0; i < index_bits; ++i)
    bits += ((a.index >> i) & 1) != ((b.index >> i) & 1);
  bits += (a.valid != b.valid);
  return bits;
}
}  // namespace

MramSparsePe::MramSparsePe() {}

void MramSparsePe::program(MramPeTile tile) {
  MSH_REQUIRE(!tile.empty());
  MSH_REQUIRE(tile.cfg.valid());
  const i64 index_bits = tile.cfg.index_bits();

  for (size_t r = 0; r < tile.rows.size(); ++r) {
    const auto& new_row = tile.rows[r];
    MSH_REQUIRE(static_cast<i64>(new_row.entries.size()) <=
                tile.pairs_per_row);
    for (size_t e = 0; e < new_row.entries.size(); ++e) {
      const MramPeTile::RowEntry* old_entry = nullptr;
      if (programmed_once_ && r < tile_.rows.size() &&
          e < tile_.rows[r].entries.size()) {
        old_entry = &tile_.rows[r].entries[e];
      }
      const MramPeTile::RowEntry blank{};
      events_.mram_set_reset_bits +=
          changed_bits(new_row.entries[e], old_entry ? *old_entry : blank,
                       index_bits);
    }
    events_.mram_write_row_ops += 1;
  }
  events_.cycles += static_cast<i64>(tile.rows.size());
  tile_ = std::move(tile);
  programmed_once_ = true;
}

MramPeOutput MramSparsePe::matvec(std::span<const i8> activations) {
  MSH_REQUIRE(loaded());
  return modeled_mram_matvec(tile_, activations, events_, &last_pipeline_);
}

}  // namespace msh
