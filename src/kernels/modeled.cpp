#include "kernels/modeled.h"

#include <algorithm>

#include "kernels/index_unit.h"
#include "kernels/shift_acc.h"

namespace msh {

namespace {

constexpr i32 kInputBits = 8;

/// Four i32 lanes (GCC/Clang vector extension): the 8 bit planes are two
/// of them, planes 0-3 and 4-7, so the per-slot gating compiles to a few
/// SSE2/NEON instructions on every baseline.
using Lanes = i32 __attribute__((vector_size(16)));
constexpr Lanes kLowBits = {1, 2, 4, 8};
constexpr Lanes kHighBits = {16, 32, 64, 128};

/// The row stride of a walk's row-major [rows x stride] activations.
i64 row_stride(std::span<const i8> activations, i64 rows,
               i64 activation_len) {
  MSH_REQUIRE(rows >= 1);
  const i64 len = static_cast<i64>(activations.size());
  MSH_REQUIRE(len % rows == 0);
  const i64 stride = len / rows;
  MSH_REQUIRE(stride >= activation_len);
  return stride;
}

/// Gives each distinct output id >= 0 in `ids` an output slot, in
/// ascending id order: fills out.output_ids and leaves the slot of id at
/// scratch.id_slot[id - lo]. Returns lo, the lowest id.
i32 number_outputs(std::span<const i32> ids, ModeledScratch& scratch,
                   TileMatvec& out) {
  i32 lo = -1;
  i32 hi = -1;
  for (const i32 id : ids) {
    if (id < 0) continue;
    lo = lo < 0 ? id : std::min(lo, id);
    hi = std::max(hi, id);
  }
  scratch.id_slot.assign(static_cast<size_t>(hi - lo + 1), -1);
  for (const i32 id : ids)
    if (id >= 0) scratch.id_slot[static_cast<size_t>(id - lo)] = 0;
  out.output_ids.clear();
  for (size_t i = 0; i < scratch.id_slot.size(); ++i) {
    if (scratch.id_slot[i] < 0) continue;
    scratch.id_slot[i] = static_cast<i64>(out.output_ids.size());
    out.output_ids.push_back(lo + static_cast<i32>(i));
  }
  return lo;
}

}  // namespace

void modeled_sram_matmul(const SramPeTile& tile,
                         std::span<const i8> activations, i64 rows,
                         PeEventCounts& events, ModeledScratch& scratch,
                         TileMatvec& out) {
  MSH_REQUIRE(!tile.empty());
  const i64 stride = row_stride(activations, rows, tile.activation_len);

  // The adder tree and the comparator banks span the tile's rows.
  if (scratch.sram_tree.inputs() != tile.rows)
    scratch.sram_tree = AdderTree(tile.rows);
  const ComparatorColumn comparators(tile.rows);

  const i64 seg_rows = tile.segment_rows;
  const i64 segs = tile.segments_per_group();
  const i32 m = tile.cfg.m;
  const i32 n = tile.cfg.n;

  // Step 2, once per call: for each segment that serves an output (only
  // those reach the shift accumulators) the comparators gate the slots
  // whose stored index matches each index phase; record every gated slot
  // as (dense row, weight). The decode is rebuilt from the live cells on
  // every call and dropped when it returns.
  const i32 lo_id = number_outputs(tile.output_id, scratch, out);
  const size_t seg_len = static_cast<size_t>(seg_rows);
  scratch.match.resize(seg_len);
  const std::span<u8> match(scratch.match);
  scratch.gated_rows.clear();
  scratch.gated_weights.clear();
  scratch.runs.clear();
  i64 active_groups = 0;
  IndexGenerator generator(m);
  for (i64 g = 0; g < tile.groups; ++g) {
    bool group_active = false;
    for (i64 s = 0; s < segs; ++s) {
      const i64 seg_idx = tile.segment_index(g, s);
      const i32 id = tile.output_id[static_cast<size_t>(seg_idx)];
      if (id < 0) continue;
      group_active = true;
      const size_t first = static_cast<size_t>(tile.slot(g, s * seg_rows));
      const auto indices =
          std::span<const u8>(tile.indices).subspan(first, seg_len);
      const auto valid =
          std::span<const u8>(tile.valid).subspan(first, seg_len);
      const auto weights =
          std::span<const i8>(tile.weights).subspan(first, seg_len);
      const i64 offset = tile.segment_offset[static_cast<size_t>(seg_idx)];

      GatedRun run;
      run.begin = static_cast<i64>(scratch.gated_rows.size());
      run.slot = scratch.id_slot[static_cast<size_t>(id - lo_id)];
      generator.reset();
      for (i32 phase = 0; phase < m; ++phase) {
        const i32 gen_index = generator.current();
        comparators.compare(indices, valid, gen_index, match);
        // Slot r addresses dense row (offset + r / N) * M + phase: the
        // address steps by M every N slots.
        i64 dense_row = offset * m + gen_index;
        i32 in_group = 0;
        for (size_t r = 0; r < seg_len; ++r) {
          if (match[r]) {
            MSH_ENSURE(dense_row < stride);
            scratch.gated_rows.push_back(static_cast<i32>(dense_row));
            scratch.gated_weights.push_back(weights[r]);
          }
          if (++in_group == n) {
            in_group = 0;
            dense_row += m;
          }
        }
        generator.step();
      }
      run.end = static_cast<i64>(scratch.gated_rows.size());
      scratch.runs.push_back(run);
    }
    active_groups += group_active;
  }

  // Structural events, the same for every row: every group's comparators
  // evaluate once per phase; each of the M x 8 bit planes is one array
  // (and decoder) cycle, fires the physical tree once per active group
  // (taps are free) and shift-accumulates every live segment; the tree
  // pipeline drains once per row; segments sharing an output merge in
  // the row-wise accumulator, and each output is written back.
  const i64 planes = static_cast<i64>(m) * kInputBits;
  const i64 live_segments = static_cast<i64>(scratch.runs.size());
  const i64 outputs = static_cast<i64>(out.output_ids.size());
  events.sram_index_compares += rows * m * tile.groups;
  events.sram_array_cycles += rows * planes;
  events.sram_decoder_cycles += rows * planes;
  events.cycles += rows * (planes + scratch.sram_tree.depth());
  events.sram_adder_tree_ops += rows * planes * active_groups;
  events.sram_shift_acc_ops += rows * planes * live_segments;
  events.sram_row_acc_ops += rows * (live_segments - outputs);
  events.buffer_bits_written += rows * outputs * 32;

  // Per row, all 8 bit planes of a segment in one pass over its gated
  // slots. Step 1: the 8T cells AND each input bit with all 8 weight
  // bits, so a gated slot adds its full signed weight to every plane
  // whose activation bit is set (branch-free: weight & -bit, lane by
  // lane), and reads popcount(code) buffer bits. The plane sums are
  // exact integer sums, equal to the adder tree's stage-by-stage
  // reduction of each phase's gated slots added over the phases. Step 3:
  // the shift accumulator weighs them (MSB plane negative).
  out.values.assign(static_cast<size_t>(rows * outputs), 0);
  const i32* gated_rows = scratch.gated_rows.data();
  const i8* gated_weights = scratch.gated_weights.data();
  for (i64 b = 0; b < rows; ++b) {
    const i8* act = activations.data() + b * stride;
    i64* values = out.values.data() + b * outputs;
    Lanes bits_read{};
    for (const GatedRun& run : scratch.runs) {
      Lanes low{};
      Lanes high{};
      for (i64 p = run.begin; p < run.end; ++p) {
        const Lanes code = Lanes{} + static_cast<u8>(act[gated_rows[p]]);
        const Lanes weight = Lanes{} + gated_weights[p];
        const Lanes low_set = (code & kLowBits) == kLowBits;  // -1 or 0
        const Lanes high_set = (code & kHighBits) == kHighBits;
        low += weight & low_set;
        high += weight & high_set;
        bits_read -= low_set + high_set;
      }
      ShiftAccumulator acc(kInputBits);
      for (i32 bit = 0; bit < 4; ++bit) acc.accumulate(low[bit], bit);
      for (i32 bit = 0; bit < 4; ++bit) acc.accumulate(high[bit], bit + 4);
      values[run.slot] += acc.value();
    }
    for (i32 lane = 0; lane < 4; ++lane)
      events.buffer_bits_read += bits_read[lane];
  }
}

void modeled_mram_matmul(const MramPeTile& tile,
                         std::span<const i8> activations, i64 rows,
                         PeEventCounts& events, ModeledScratch& scratch,
                         TileMatvec& out, MramPipelineStats* pipeline) {
  MSH_REQUIRE(!tile.empty());
  const i64 stride = row_stride(activations, rows, tile.activation_len);

  const i32 m = tile.cfg.m;
  const i32 n = tile.cfg.n;

  // The tile's column accumulators, one output slot per id it serves.
  scratch.row_ids.clear();
  for (const auto& row : tile.rows) scratch.row_ids.push_back(row.output_id);
  const i32 lo_id = number_outputs(scratch.row_ids, scratch, out);

  // S1/S2 decode, once per call: each used row's valid entries as (dense
  // row, weight), the mux address of entry e being
  // ((packed_base + e) / N) * M + index, stepped by M every N entries.
  scratch.gated_rows.clear();
  scratch.gated_weights.clear();
  scratch.runs.clear();
  i64 widest = 0;
  for (const auto& row : tile.rows) {
    if (row.output_id < 0) continue;
    GatedRun run;
    run.begin = static_cast<i64>(scratch.gated_rows.size());
    run.slot = scratch.id_slot[static_cast<size_t>(row.output_id - lo_id)];
    i64 group_base = row.packed_base / n * m;
    i64 in_group = row.packed_base % n;
    for (const auto& entry : row.entries) {
      if (entry.valid) {
        const i64 dense_row = group_base + static_cast<i64>(entry.index);
        MSH_ENSURE(dense_row < stride);
        scratch.gated_rows.push_back(static_cast<i32>(dense_row));
        scratch.gated_weights.push_back(entry.weight);
      }
      if (++in_group == n) {
        in_group = 0;
        group_base += m;
      }
    }
    run.end = static_cast<i64>(scratch.gated_rows.size());
    widest = std::max(widest, run.end - run.begin);
    scratch.runs.push_back(run);
  }
  if (static_cast<i64>(scratch.partials.size()) < widest)
    scratch.partials.resize(static_cast<size_t>(widest));

  // Per row: S1 senses each used row, S2 muxes 8 bits per valid entry
  // from the buffer, S3 shift-accumulates and reduces the row through
  // the tree; the pipeline retires one row per cycle after its fill.
  MramPipelineStats stats;
  stats.rows = static_cast<i64>(scratch.runs.size());
  const i64 outputs = static_cast<i64>(out.output_ids.size());
  const i64 entries = static_cast<i64>(scratch.gated_rows.size());
  events.mram_row_reads += rows * stats.rows;
  events.buffer_bits_read += rows * entries * 8;
  events.mram_shift_acc_ops += rows * stats.rows;
  events.mram_adder_tree_ops += rows * stats.rows;
  events.cycles += rows * stats.total_cycles();
  events.buffer_bits_written += rows * outputs * 32;
  if (pipeline != nullptr) *pipeline = stats;

  out.values.assign(static_cast<size_t>(rows * outputs), 0);
  const std::span<i32> partials(scratch.partials);
  for (i64 b = 0; b < rows; ++b) {
    const i8* act = activations.data() + b * stride;
    i64* values = out.values.data() + b * outputs;
    for (const GatedRun& run : scratch.runs) {
      // S3: parallel shift-and-accumulate forms the 8b x 8b products.
      for (i64 p = run.begin; p < run.end; ++p) {
        partials[static_cast<size_t>(p - run.begin)] =
            static_cast<i32>(scratch.gated_weights[static_cast<size_t>(p)]) *
            static_cast<i32>(
                act[scratch.gated_rows[static_cast<size_t>(p)]]);
      }
      values[run.slot] += scratch.mram_tree.reduce(
          partials.first(static_cast<size_t>(run.end - run.begin)));
    }
  }
}

TileMatvec modeled_sram_matvec(const SramPeTile& tile,
                               std::span<const i8> activations,
                               PeEventCounts& events) {
  ModeledScratch scratch;
  TileMatvec out;
  modeled_sram_matmul(tile, activations, 1, events, scratch, out);
  return out;
}

TileMatvec modeled_mram_matvec(const MramPeTile& tile,
                               std::span<const i8> activations,
                               PeEventCounts& events,
                               MramPipelineStats* pipeline) {
  ModeledScratch scratch;
  TileMatvec out;
  modeled_mram_matmul(tile, activations, 1, events, scratch, out, pipeline);
  return out;
}

}  // namespace msh
