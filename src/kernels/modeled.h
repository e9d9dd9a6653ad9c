// Modeled backend kernels: the side-effect-free functional walks of both
// PE datapaths, lifted out of the PE classes so the PEs are thin wrappers
// that attach event accounting to state (load/program/absorb). One call
// walks one tile over every activation lane of a dispatch, weight-
// stationary like the paper's PEs: the tile's cells are decoded once and
// the lanes stream through them, a block of kWalkLanes at a time. It
// computes the tile's sparse matmul and the exact event deltas the
// hardware walk would produce; callers own where the events land.
//
// These kernels are the arithmetic source of truth: the raw backend
// (flat_csc.h) is verified bit-identical against them. They stay an
// independent second arithmetic path on purpose (DESIGN §5j): the SRAM
// walk reduces gated bit planes and shift-accumulates them, never
// sum(w * x), and every call decodes the live tile cells afresh, so a
// cell written since the last call is always seen.
#pragma once

#include <span>
#include <vector>

#include "kernels/direct_conv.h"
#include "pim/events.h"   // header-only event counter format
#include "pim/pe_tile.h"  // header-only tile formats

namespace msh {

/// Activation lanes a walk steps through together: LaneView::lanes is a
/// multiple of it.
inline constexpr i64 kWalkLanes = 8;

/// Lanes a walk over `count` rows takes: count rounded up to kWalkLanes.
inline i64 walk_lanes(i64 count) {
  return (count + kWalkLanes - 1) / kWalkLanes * kWalkLanes;
}

/// A dispatch's activations as both walks read them, tap-major: tap r
/// (dense row r) of lane q is the INT8 code base[row_off[r] + q], held as
/// i16 — the operand direct_conv reads. A conv's lanes are its output
/// positions over the code planes; a matmul's are its rows, transposed
/// (lanes_from_rows).
struct LaneView {
  const i16* base = nullptr;
  /// One offset per dense row; lanes [0, lanes) of each tap are readable.
  std::span<const i64> row_off;
  i64 lanes = 0;  ///< lanes walked, a multiple of kWalkLanes
  /// Valid lanes: the activation rows the hardware streams, which every
  /// per-row event counts. The other lanes (a conv's padding ring, a
  /// matmul's round-up) are walked and their results are unspecified.
  i64 rows = 0;
  /// Per dense row, the buffer bits its code reads over the valid lanes
  /// (count_tap_bits): the data term of the SRAM walk's
  /// buffer_bits_read. The MRAM walk does not read it.
  std::span<const i64> tap_bits;
};

/// A conv's tap_bits: tap_bits[r] = the set bits of the 8-bit codes that
/// tap r (plane offset row_off[r], ConvPlanes::row_offsets) reads over
/// the valid lanes layout.position(n, oy, ox), oy < out_h, ox < out_w;
/// the padding ring's lanes are not counted. The k * k taps of a conv
/// read each plane at fixed shifts, so each plane a tap reads is
/// popcounted once, into `plane_bits` (layout.plane_len elements), and
/// each tap sums its shifted slice of it under the valid-lane mask it
/// builds in `lane_mask` (layout.positions elements). Rows in the zero
/// plane (the K tail) count 0.
void count_tap_bits(const i16* planes, const ConvPlanes& layout,
                    std::span<const i64> row_off, std::span<i16> plane_bits,
                    std::span<i16> lane_mask, std::span<i64> tap_bits);

/// Lays `count` row-major rows of `taps` INT8 codes out as a lane view
/// over caller storage: codes [taps x walk_lanes(count)], lane b of tap r
/// holding rows[b * taps + r] and the round-up lanes 0; row_off[r] =
/// r * lanes; tap_bits from the rows. Spans are taps * lanes, taps and
/// taps long.
LaneView lanes_from_rows(const i8* rows, i64 count, i64 taps,
                         std::span<i16> codes, std::span<i64> row_off,
                         std::span<i64> tap_bits);

/// Result of one tile walk: the logical output columns present in the
/// tile, in ascending output_id order, and their accumulator values,
/// slot-major [output_ids.size() x lanes].
struct TileMatvec {
  std::vector<i32> output_ids;
  std::vector<i64> values;
};

/// Cycle-accounting snapshot of the MRAM PE's 3-stage pipeline over one
/// activation row.
struct MramPipelineStats {
  i64 rows = 0;
  i64 fill_cycles = 2;
  i64 total_cycles() const { return rows == 0 ? 0 : rows + fill_cycles; }
  /// Steady-state MACs per cycle.
  f64 throughput(i64 pairs_per_row) const {
    return total_cycles() == 0 ? 0.0
                               : static_cast<f64>(rows * pairs_per_row) /
                                     static_cast<f64>(total_cycles());
  }
};

/// One decoded run of a tile: a live SRAM segment or a used MRAM
/// physical row, as the range [begin, end) of the call's gated lists and
/// the output slot (index into TileMatvec::output_ids) it deposits into.
struct GatedRun {
  i64 begin = 0;
  i64 end = 0;
  i64 slot = 0;
};

/// Working storage of the modeled walks, owned by one caller (a
/// dispatch) and passed to each call it makes. The buffers grow to their
/// high-water mark on the first tiles and are reused after that, so a
/// warmed walk allocates nothing. Nothing in here outlives a call as
/// state: each call rebuilds its decode from the live tile and drops it
/// when it returns.
struct ModeledScratch {
  std::vector<u8> match;  ///< one segment's comparator outputs, one phase
  std::vector<i32> row_ids;  ///< each MRAM physical row's output id
  std::vector<i64> id_slot;  ///< output slot by id - lowest id
  /// The call's decode: each gated SRAM slot (valid MRAM entry) as its
  /// tap's offset in the lane view and its weight, run by run.
  std::vector<i64> gated_taps;
  std::vector<i8> gated_weights;
  std::vector<GatedRun> runs;
};

/// Bit-serial SRAM PE matmul (paper §3.1, Fig 3) over the lanes of
/// `view` (row_off spanning at least tile.activation_len taps). The
/// comparators gate each live segment's slots against the M index phases
/// once per call; per block of lanes, each gated slot adds its weight to
/// the bit planes its tap's codes set, and the 8 plane sums go through
/// the shift accumulator (MSB plane negative). Pure: all accounting lands
/// in `events` (summed over the view's rows), the results in `out`
/// (replaced).
void modeled_sram_matmul(const SramPeTile& tile, const LaneView& view,
                         PeEventCounts& events, ModeledScratch& scratch,
                         TileMatvec& out);

/// Near-memory MRAM PE matmul (paper §3.2, Fig 5) over the lanes of
/// `view`: per row, one physical row per cycle through the 3-stage
/// sense/mux/accumulate pipeline. Pure: all accounting lands in `events`
/// (summed over the view's rows; `*pipeline`, when given, gets one row's
/// pass), the results in `out` (replaced).
void modeled_mram_matmul(const MramPeTile& tile, const LaneView& view,
                         PeEventCounts& events, ModeledScratch& scratch,
                         TileMatvec& out,
                         MramPipelineStats* pipeline = nullptr);

/// One-off single-row forms of the walks above, with call-local scratch:
/// the row is lane 0 of a kWalkLanes-lane view, and `values` holds one
/// value per output.
TileMatvec modeled_sram_matvec(const SramPeTile& tile,
                               std::span<const i8> activations,
                               PeEventCounts& events);
TileMatvec modeled_mram_matvec(const MramPeTile& tile,
                               std::span<const i8> activations,
                               PeEventCounts& events,
                               MramPipelineStats* pipeline = nullptr);

}  // namespace msh
