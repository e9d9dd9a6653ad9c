#include "kernels/modeled.h"

#include <algorithm>

#include "kernels/index_unit.h"
#include "kernels/shift_acc.h"

namespace msh {

void modeled_sram_matvec(const SramPeTile& tile,
                         std::span<const i8> activations,
                         PeEventCounts& events, ModeledScratch& scratch,
                         TileMatvec& out) {
  MSH_REQUIRE(!tile.empty());
  MSH_REQUIRE(static_cast<i64>(activations.size()) >= tile.activation_len);

  // The adder tree and the comparator banks span the tile's rows.
  if (scratch.sram_tree.inputs() != tile.rows)
    scratch.sram_tree = AdderTree(tile.rows);
  AdderTree& tree = scratch.sram_tree;
  const ComparatorColumn comparators(tile.rows);

  const i64 seg_rows = tile.segment_rows;
  const i64 segs = tile.segments_per_group();
  const i32 m = tile.cfg.m;
  const i32 n = tile.cfg.n;
  constexpr i32 kInputBits = 8;

  const size_t seg_len = static_cast<size_t>(seg_rows);
  scratch.match.resize(seg_len);
  scratch.pair_weights.resize(seg_len);
  scratch.pair_codes.resize(seg_len);
  scratch.partials.resize(seg_len);
  scratch.segments.clear();
  const std::span<u8> match(scratch.match);
  const std::span<i32> partials(scratch.partials);

  // Only segments serving an output reach the shift accumulators; each
  // reduces independently, so walking them one at a time (phase by
  // phase, bit plane by bit plane) yields the hardware's sums.
  i64 active_groups = 0;
  IndexGenerator generator(m);
  for (i64 g = 0; g < tile.groups; ++g) {
    bool group_active = false;
    for (i64 s = 0; s < segs; ++s) {
      const i64 seg_idx = tile.segment_index(g, s);
      const i32 id = tile.output_id[static_cast<size_t>(seg_idx)];
      if (id < 0) continue;
      group_active = true;
      const i64 offset = tile.segment_offset[static_cast<size_t>(seg_idx)];
      const size_t first = static_cast<size_t>(tile.slot(g, s * seg_rows));
      const auto indices =
          std::span<const u8>(tile.indices).subspan(first, seg_len);
      const auto valid =
          std::span<const u8>(tile.valid).subspan(first, seg_len);
      const auto weights =
          std::span<const i8>(tile.weights).subspan(first, seg_len);

      ShiftAccumulator acc(kInputBits);
      generator.reset();
      for (i32 phase = 0; phase < m; ++phase) {
        const i32 gen_index = generator.current();
        // Step 2: the comparators gate the slots whose stored index
        // matches this phase; gather each matched slot's weight and the
        // dense activation it addresses.
        comparators.compare(indices, valid, gen_index, match);
        i64 pairs = 0;
        for (i64 r = 0; r < seg_rows; ++r) {
          if (!match[static_cast<size_t>(r)]) continue;
          const i64 dense_row = (offset + r / n) * m + gen_index;
          MSH_ENSURE(dense_row < static_cast<i64>(activations.size()));
          scratch.pair_weights[static_cast<size_t>(pairs)] =
              weights[static_cast<size_t>(r)];
          scratch.pair_codes[static_cast<size_t>(pairs)] =
              activations[static_cast<size_t>(dense_row)];
          ++pairs;
        }
        for (i32 bit = 0; bit < kInputBits; ++bit) {
          // Step 1: the 8T cells AND the shared input bit with all 8
          // weight bits — a matched row whose activation bit is set
          // contributes its full signed weight to this bit plane.
          i64 gated = 0;
          for (i64 p = 0; p < pairs; ++p) {
            partials[static_cast<size_t>(gated)] =
                scratch.pair_weights[static_cast<size_t>(p)];
            gated += (static_cast<u8>(
                          scratch.pair_codes[static_cast<size_t>(p)]) >>
                      bit) & 1;
          }
          events.buffer_bits_read += gated;
          // Step 3: subtree reduction + shift accumulate.
          acc.accumulate(
              tree.reduce(partials.first(static_cast<size_t>(gated))), bit);
        }
        generator.step();
      }
      scratch.segments.emplace_back(id, acc.value());
    }
    active_groups += group_active;
  }

  // Structural events, which do not depend on the data: every group's
  // comparators evaluate once per phase; each of the M x 8 bit planes is
  // one array (and decoder) cycle, fires the physical tree once per
  // active group (taps are free) and shift-accumulates every live
  // segment; the tree pipeline drains once at the end.
  const i64 planes = static_cast<i64>(m) * kInputBits;
  const i64 live_segments = static_cast<i64>(scratch.segments.size());
  events.sram_index_compares += m * tile.groups;
  events.sram_array_cycles += planes;
  events.sram_decoder_cycles += planes;
  events.cycles += planes + tree.depth();
  events.sram_adder_tree_ops += planes * active_groups;
  events.sram_shift_acc_ops += planes * live_segments;

  // Row-wise accumulator: merge segments sharing a logical output column.
  std::sort(scratch.segments.begin(), scratch.segments.end());
  out.output_ids.clear();
  out.values.clear();
  for (const auto& [id, value] : scratch.segments) {
    if (!out.output_ids.empty() && out.output_ids.back() == id) {
      out.values.back() += value;
      events.sram_row_acc_ops += 1;
      continue;
    }
    out.output_ids.push_back(id);
    out.values.push_back(value);
    events.buffer_bits_written += 32;  // accumulator write-back
  }
}

void modeled_mram_matvec(const MramPeTile& tile,
                         std::span<const i8> activations,
                         PeEventCounts& events, ModeledScratch& scratch,
                         TileMatvec& out, MramPipelineStats* pipeline) {
  MSH_REQUIRE(!tile.empty());
  MSH_REQUIRE(static_cast<i64>(activations.size()) >= tile.activation_len);

  const i32 m = tile.cfg.m;
  const i32 n = tile.cfg.n;

  // The tile's column accumulators, one per output id it serves.
  i32 lo_id = 0;
  i32 hi_id = -1;
  i64 used_rows = 0;
  for (const auto& row : tile.rows) {
    if (row.output_id < 0) continue;
    lo_id = used_rows == 0 ? row.output_id : std::min(lo_id, row.output_id);
    hi_id = std::max(hi_id, row.output_id);
    ++used_rows;
  }
  const size_t ids = static_cast<size_t>(hi_id - lo_id + 1);
  scratch.row_acc.assign(ids, 0);
  scratch.row_touched.assign(ids, 0);

  for (const auto& row : tile.rows) {
    if (row.output_id < 0) continue;
    // S1: sense the row (weights + indices).
    events.mram_row_reads += 1;
    if (scratch.partials.size() < row.entries.size())
      scratch.partials.resize(row.entries.size());
    i64 products = 0;
    for (size_t e = 0; e < row.entries.size(); ++e) {
      const auto& entry = row.entries[e];
      if (!entry.valid) continue;
      // S2: MUX selects the addressed activation from the buffer.
      const i64 packed_row = row.packed_base + static_cast<i64>(e);
      const i64 dense_row =
          (packed_row / n) * m + static_cast<i64>(entry.index);
      MSH_ENSURE(dense_row < static_cast<i64>(activations.size()));
      events.buffer_bits_read += 8;
      // S3: parallel shift-and-accumulate forms the 8b x 8b product.
      scratch.partials[static_cast<size_t>(products++)] =
          static_cast<i32>(entry.weight) *
          static_cast<i32>(activations[static_cast<size_t>(dense_row)]);
    }
    events.mram_shift_acc_ops += 1;
    const i32 row_sum = scratch.mram_tree.reduce(
        std::span<const i32>(scratch.partials)
            .first(static_cast<size_t>(products)));
    events.mram_adder_tree_ops += 1;
    const size_t slot = static_cast<size_t>(row.output_id - lo_id);
    scratch.row_acc[slot] += row_sum;
    scratch.row_touched[slot] = 1;
  }

  MramPipelineStats stats;
  stats.rows = used_rows;
  events.cycles += stats.total_cycles();
  if (pipeline != nullptr) *pipeline = stats;

  out.output_ids.clear();
  out.values.clear();
  for (size_t slot = 0; slot < ids; ++slot) {
    if (!scratch.row_touched[slot]) continue;
    out.output_ids.push_back(lo_id + static_cast<i32>(slot));
    out.values.push_back(scratch.row_acc[slot]);
    events.buffer_bits_written += 32;
  }
}

TileMatvec modeled_sram_matvec(const SramPeTile& tile,
                               std::span<const i8> activations,
                               PeEventCounts& events) {
  ModeledScratch scratch;
  TileMatvec out;
  modeled_sram_matvec(tile, activations, events, scratch, out);
  return out;
}

TileMatvec modeled_mram_matvec(const MramPeTile& tile,
                               std::span<const i8> activations,
                               PeEventCounts& events,
                               MramPipelineStats* pipeline) {
  ModeledScratch scratch;
  TileMatvec out;
  modeled_mram_matvec(tile, activations, events, scratch, out, pipeline);
  return out;
}

}  // namespace msh
