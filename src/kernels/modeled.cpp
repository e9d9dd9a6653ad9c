#include "kernels/modeled.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "kernels/adder_tree.h"
#include "kernels/index_unit.h"
#include "kernels/shift_acc.h"

namespace msh {

namespace {

constexpr i32 kInputBits = 8;

/// One block of kWalkLanes lanes as i16 (GCC/Clang vector extension):
/// one tap's codes, or one bit plane's sums over the block, in a single
/// SSE2/NEON register on every baseline.
using Codes = i16 __attribute__((vector_size(2 * kWalkLanes)));
/// Half a block widened to i32.
using Wide = i32 __attribute__((vector_size(2 * kWalkLanes)));
static_assert(sizeof(Codes) == kWalkLanes * sizeof(i16));

/// Gated slots whose i16 plane sums are exact: |w| <= 128, and
/// 256 x -128 = -32768 is the i16 minimum.
constexpr i64 kPlaneSlots = 256;

Codes load_block(const i16* p) {
  Codes v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// Lanes 0-3 and 4-7 of a block, sign-extended to i32: each lane is
/// paired with itself into one i32 (the same bits on either byte order),
/// and the arithmetic shift keeps one copy.
Wide low_half(Codes v) {
  return reinterpret_cast<Wide>(
             __builtin_shufflevector(v, v, 0, 0, 1, 1, 2, 2, 3, 3)) >>
         16;
}
Wide high_half(Codes v) {
  return reinterpret_cast<Wide>(
             __builtin_shufflevector(v, v, 4, 4, 5, 5, 6, 6, 7, 7)) >>
         16;
}

/// Adds a block's two i32 halves into its lanes' i64 accumulators.
void add_block(i64* values, Wide low, Wide high) {
  for (i32 j = 0; j < 4; ++j) {
    values[j] += low[j];
    values[j + 4] += high[j];
  }
}

/// Checks a view against a tile expecting `activation_len` taps.
void check_view(const LaneView& view, i64 activation_len) {
  MSH_REQUIRE(view.lanes >= kWalkLanes && view.lanes % kWalkLanes == 0);
  MSH_REQUIRE(view.rows >= 1 && view.rows <= view.lanes);
  MSH_REQUIRE(static_cast<i64>(view.row_off.size()) >= activation_len);
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

/// Each lane's 8-bit code popcount.
Codes code_bits(Codes v) {
  v &= 0xFF;
  v = v - ((v >> 1) & 0x55);
  v = (v & 0x33) + ((v >> 2) & 0x33);
  return (v + (v >> 4)) & 0x0F;
}

/// Sum of every lane of block(q) over the blocks q < lanes, each lane of
/// a block at most 8: an i16 lane sum stays exact (at most 2^14) over
/// 2048 blocks.
template <typename Block>
i64 sum_blocks(i64 lanes, Block block) {
  MSH_REQUIRE(lanes % kWalkLanes == 0);
  constexpr i64 kChunk = 2048 * kWalkLanes;
  i64 total = 0;
  for (i64 c0 = 0; c0 < lanes; c0 += kChunk) {
    Codes sum{};
    for (i64 q = c0; q < std::min(lanes, c0 + kChunk); q += kWalkLanes) {
      sum += block(q);
    }
    for (i64 j = 0; j < kWalkLanes; ++j) total += sum[j];
  }
  return total;
}

/// Sum over lanes q < lanes of popcount(tap[q] & 0xFF), the 8-bit
/// codes' set bits.
i64 tap_popcount(const i16* tap, i64 lanes) {
  return sum_blocks(lanes,
                    [&](i64 q) { return code_bits(load_block(tap + q)); });
}

/// One row through a walk: the row is lane 0 of a kWalkLanes-lane view,
/// and lane 0's results are kept, one value per output.
template <typename Walk>
TileMatvec walk_one_row(std::span<const i8> activations, Walk&& walk) {
  const i64 taps = static_cast<i64>(activations.size());
  std::vector<i16> codes(static_cast<size_t>(taps * kWalkLanes));
  std::vector<i64> row_off(static_cast<size_t>(taps));
  std::vector<i64> tap_bits(static_cast<size_t>(taps));
  const LaneView view = lanes_from_rows(activations.data(), 1, taps, codes,
                                        row_off, tap_bits);
  ModeledScratch scratch;
  TileMatvec out;
  walk(view, scratch, out);
  for (size_t k = 0; k < out.output_ids.size(); ++k)
    out.values[k] = out.values[k * kWalkLanes];
  out.values.resize(out.output_ids.size());
  return out;
}

}  // namespace

void count_tap_bits(const i16* planes, const ConvPlanes& g,
                    std::span<const i64> row_off, std::span<i16> plane_bits,
                    std::span<i16> lane_mask, std::span<i64> tap_bits) {
  MSH_REQUIRE(tap_bits.size() == row_off.size());
  MSH_REQUIRE(static_cast<i64>(plane_bits.size()) == g.plane_len);
  MSH_REQUIRE(static_cast<i64>(lane_mask.size()) == g.positions);
  std::fill(lane_mask.begin(), lane_mask.end(), i16{0});
  for (i64 n = 0; n < g.batch; ++n) {
    for (i64 oy = 0; oy < g.out_h; ++oy) {
      i16* row = lane_mask.data() + g.position(n, oy, 0);
      std::fill(row, row + g.out_w, i16{-1});
    }
  }
  std::fill(tap_bits.begin(), tap_bits.end(), 0);
  i16* bits = plane_bits.data();
  const i64 blocks_end = g.plane_len / kWalkLanes * kWalkLanes;
  for (i64 p = 1; p < 1 + g.channels * g.channel_planes; ++p) {
    // A sibling view reads one of each channel's phase planes.
    if (std::none_of(row_off.begin(), row_off.end(),
                     [&](i64 off) { return off / g.plane_len == p; })) {
      continue;
    }
    const i16* plane = planes + p * g.plane_len;
    for (i64 i = 0; i < blocks_end; i += kWalkLanes) {
      const Codes v = code_bits(load_block(plane + i));
      std::memcpy(bits + i, &v, sizeof v);
    }
    for (i64 i = blocks_end; i < g.plane_len; ++i) {
      bits[i] = static_cast<i16>(std::popcount(static_cast<u8>(plane[i])));
    }
    for (size_t r = 0; r < row_off.size(); ++r) {
      if (row_off[r] / g.plane_len != p) continue;
      // Tap r reads lane q at plane index q + shift.
      const i16* tap = bits + (row_off[r] - p * g.plane_len);
      tap_bits[r] = sum_blocks(g.positions, [&](i64 q) {
        return load_block(tap + q) & load_block(lane_mask.data() + q);
      });
    }
  }
}

LaneView lanes_from_rows(const i8* rows, i64 count, i64 taps,
                         std::span<i16> codes, std::span<i64> row_off,
                         std::span<i64> tap_bits) {
  MSH_REQUIRE(count >= 1 && taps >= 0);
  const i64 lanes = walk_lanes(count);
  MSH_REQUIRE(static_cast<i64>(codes.size()) == taps * lanes);
  MSH_REQUIRE(static_cast<i64>(row_off.size()) == taps);
  MSH_REQUIRE(static_cast<i64>(tap_bits.size()) == taps);
  // A block of rows at a time, so the rows it reads stay in cache while
  // every tap takes its lanes from them. The round-up lanes hold 0.
  for (i64 b0 = 0; b0 < lanes; b0 += kWalkLanes) {
    const i64 block = std::min(kWalkLanes, count - b0);
    for (i64 r = 0; r < taps; ++r) {
      i16* lane = codes.data() + r * lanes + b0;
      for (i64 j = 0; j < block; ++j) lane[j] = rows[(b0 + j) * taps + r];
      std::fill(lane + block, lane + kWalkLanes, i16{0});
    }
  }
  for (i64 r = 0; r < taps; ++r) {
    row_off[static_cast<size_t>(r)] = r * lanes;
    tap_bits[static_cast<size_t>(r)] =
        tap_popcount(codes.data() + r * lanes, lanes);
  }
  return LaneView{codes.data(), row_off, lanes, count, tap_bits};
}

void modeled_sram_matmul(const SramPeTile& tile, const LaneView& view,
                         PeEventCounts& events, ModeledScratch& scratch,
                         TileMatvec& out) {
  MSH_REQUIRE(!tile.empty());
  check_view(view, tile.activation_len);
  MSH_REQUIRE(view.tap_bits.size() == view.row_off.size());
  const i64 taps = static_cast<i64>(view.row_off.size());

  // The adder tree and the comparator banks span the tile's rows.
  const AdderTree tree(tile.rows);
  const ComparatorColumn comparators(tile.rows);

  const i64 seg_rows = tile.segment_rows;
  const i64 segs = tile.segments_per_group();
  const i32 m = tile.cfg.m;
  const i32 n = tile.cfg.n;

  // Step 2, once per call: for each segment that serves an output (only
  // those reach the shift accumulators) the comparators gate the slots
  // whose stored index matches each index phase; record every gated slot
  // as (tap offset, weight). Every gated slot reads its tap's code over
  // each valid lane, popcount bits each: u_r gated slots on dense row r
  // read u_r x tap_bits[r]. The decode is rebuilt from the live cells on
  // every call and dropped when it returns.
  const i32 lo_id = number_outputs(tile.output_id, scratch, out);
  const size_t seg_len = static_cast<size_t>(seg_rows);
  scratch.match.resize(seg_len);
  const std::span<u8> match(scratch.match);
  scratch.gated_taps.clear();
  scratch.gated_weights.clear();
  scratch.runs.clear();
  i64 active_groups = 0;
  i64 bits_read = 0;
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
      run.begin = static_cast<i64>(scratch.gated_taps.size());
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
            MSH_ENSURE(dense_row < taps);
            const size_t tap = static_cast<size_t>(dense_row);
            scratch.gated_taps.push_back(view.row_off[tap]);
            scratch.gated_weights.push_back(weights[r]);
            bits_read += view.tap_bits[tap];
          }
          if (++in_group == n) {
            in_group = 0;
            dense_row += m;
          }
        }
        generator.step();
      }
      run.end = static_cast<i64>(scratch.gated_taps.size());
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
  const i64 rows = view.rows;
  const i64 planes = static_cast<i64>(m) * kInputBits;
  const i64 live_segments = static_cast<i64>(scratch.runs.size());
  const i64 outputs = static_cast<i64>(out.output_ids.size());
  events.sram_index_compares += rows * m * tile.groups;
  events.sram_array_cycles += rows * planes;
  events.sram_decoder_cycles += rows * planes;
  events.cycles += rows * (planes + tree.depth());
  events.sram_adder_tree_ops += rows * planes * active_groups;
  events.sram_shift_acc_ops += rows * planes * live_segments;
  events.sram_row_acc_ops += rows * (live_segments - outputs);
  events.buffer_bits_written += rows * outputs * 32;
  events.buffer_bits_read += bits_read;

  // Per block of lanes, all 8 bit planes of a segment in one pass over
  // its gated slots. Step 1: the 8T cells AND each input bit with all 8
  // weight bits, so a gated slot adds its full signed weight to every
  // plane whose activation bit is set: lane by lane, w & -bit. The plane
  // sums are exact integer sums, equal to the adder tree's stage-by-stage
  // reduction of each phase's gated slots added over the phases; i16
  // holds them exactly over kPlaneSlots slots, so a longer segment
  // flushes every kPlaneSlots. Step 3: the shift accumulator weighs
  // them (MSB plane negative), which is linear, so flushing partial plane
  // sums through it and adding the results is exact.
  const i64 lanes = view.lanes;
  out.values.assign(static_cast<size_t>(outputs * lanes), 0);
  const i64* gated_taps = scratch.gated_taps.data();
  const i8* gated_weights = scratch.gated_weights.data();
  for (i64 q0 = 0; q0 < lanes; q0 += kWalkLanes) {
    const i16* block = view.base + q0;
    for (const GatedRun& run : scratch.runs) {
      i64* values = out.values.data() + run.slot * lanes + q0;
      for (i64 p0 = run.begin; p0 < run.end; p0 += kPlaneSlots) {
        Codes plane[kInputBits] = {};
        for (i64 p = p0; p < std::min(run.end, p0 + kPlaneSlots); ++p) {
          const Codes code = load_block(block + gated_taps[p]);
          const Codes weight = Codes{} + gated_weights[p];
          // Unrolled at -O2 too, so the planes stay in registers.
#pragma GCC unroll 8
          for (i32 k = 0; k < kInputBits; ++k) {
            const i16 bit = static_cast<i16>(1 << k);
            plane[k] += weight & ((code & bit) == bit);  // -1 or 0 mask
          }
        }
        ShiftAccumulator<Wide> low(kInputBits);
        ShiftAccumulator<Wide> high(kInputBits);
#pragma GCC unroll 8
        for (i32 k = 0; k < kInputBits; ++k) {
          low.accumulate(low_half(plane[k]), k);
          high.accumulate(high_half(plane[k]), k);
        }
        add_block(values, low.value(), high.value());
      }
    }
  }
}

void modeled_mram_matmul(const MramPeTile& tile, const LaneView& view,
                         PeEventCounts& events, ModeledScratch& scratch,
                         TileMatvec& out, MramPipelineStats* pipeline) {
  MSH_REQUIRE(!tile.empty());
  check_view(view, tile.activation_len);
  const i64 taps = static_cast<i64>(view.row_off.size());

  const i32 m = tile.cfg.m;
  const i32 n = tile.cfg.n;

  // The tile's column accumulators, one output slot per id it serves.
  scratch.row_ids.clear();
  for (const auto& row : tile.rows) scratch.row_ids.push_back(row.output_id);
  const i32 lo_id = number_outputs(scratch.row_ids, scratch, out);

  // S1/S2 decode, once per call: each used row's valid entries as (tap
  // offset, weight), the mux address of entry e being
  // ((packed_base + e) / N) * M + index, stepped by M every N entries.
  scratch.gated_taps.clear();
  scratch.gated_weights.clear();
  scratch.runs.clear();
  for (const auto& row : tile.rows) {
    if (row.output_id < 0) continue;
    GatedRun run;
    run.begin = static_cast<i64>(scratch.gated_taps.size());
    run.slot = scratch.id_slot[static_cast<size_t>(row.output_id - lo_id)];
    i64 group_base = row.packed_base / n * m;
    i64 in_group = row.packed_base % n;
    for (const auto& entry : row.entries) {
      if (entry.valid) {
        const i64 dense_row = group_base + static_cast<i64>(entry.index);
        MSH_ENSURE(dense_row < taps);
        scratch.gated_taps.push_back(
            view.row_off[static_cast<size_t>(dense_row)]);
        scratch.gated_weights.push_back(entry.weight);
      }
      if (++in_group == n) {
        in_group = 0;
        group_base += m;
      }
    }
    run.end = static_cast<i64>(scratch.gated_taps.size());
    scratch.runs.push_back(run);
  }

  // Per row: S1 senses each used row, S2 muxes 8 bits per valid entry
  // from the buffer, S3 shift-accumulates and reduces the row through
  // the tree; the pipeline retires one row per cycle after its fill.
  // Every event is structural.
  MramPipelineStats stats;
  stats.rows = static_cast<i64>(scratch.runs.size());
  const i64 rows = view.rows;
  const i64 outputs = static_cast<i64>(out.output_ids.size());
  const i64 entries = static_cast<i64>(scratch.gated_taps.size());
  events.mram_row_reads += rows * stats.rows;
  events.buffer_bits_read += rows * entries * 8;
  events.mram_shift_acc_ops += rows * stats.rows;
  events.mram_adder_tree_ops += rows * stats.rows;
  events.cycles += rows * stats.total_cycles();
  events.buffer_bits_written += rows * outputs * 32;
  if (pipeline != nullptr) *pipeline = stats;

  // S3 per block of lanes: each valid entry's 8b x 8b products, exact in
  // i16 (|x * w| <= 2^14 for any INT8 pair), widened into the row's i32
  // sums, which the tree's exact reduction equals.
  const i64 lanes = view.lanes;
  out.values.assign(static_cast<size_t>(outputs * lanes), 0);
  const i64* gated_taps = scratch.gated_taps.data();
  const i8* gated_weights = scratch.gated_weights.data();
  for (i64 q0 = 0; q0 < lanes; q0 += kWalkLanes) {
    const i16* block = view.base + q0;
    for (const GatedRun& run : scratch.runs) {
      Wide low{};
      Wide high{};
      for (i64 p = run.begin; p < run.end; ++p) {
        const Codes product =
            load_block(block + gated_taps[p]) * (Codes{} + gated_weights[p]);
        low += low_half(product);
        high += high_half(product);
      }
      add_block(out.values.data() + run.slot * lanes + q0, low, high);
    }
  }
}

TileMatvec modeled_sram_matvec(const SramPeTile& tile,
                               std::span<const i8> activations,
                               PeEventCounts& events) {
  return walk_one_row(activations, [&](const LaneView& view,
                                       ModeledScratch& scratch,
                                       TileMatvec& out) {
    modeled_sram_matmul(tile, view, events, scratch, out);
  });
}

TileMatvec modeled_mram_matvec(const MramPeTile& tile,
                               std::span<const i8> activations,
                               PeEventCounts& events,
                               MramPipelineStats* pipeline) {
  return walk_one_row(activations, [&](const LaneView& view,
                                       ModeledScratch& scratch,
                                       TileMatvec& out) {
    modeled_mram_matmul(tile, view, events, scratch, out, pipeline);
  });
}

}  // namespace msh
