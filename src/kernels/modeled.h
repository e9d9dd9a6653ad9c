// Modeled backend kernels: the side-effect-free functional walks of both
// PE datapaths, lifted out of the PE classes so the PEs are thin wrappers
// that attach event accounting to state (load/program/absorb). One call
// walks one tile over every activation row of a dispatch, weight-
// stationary like the paper's PEs: the tile's cells are decoded once and
// the rows stream through them. It computes the tile's sparse matmul and
// the exact event deltas the hardware walk would produce; callers own
// where the events land.
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

#include "kernels/adder_tree.h"
#include "pim/events.h"   // header-only event counter format
#include "pim/pe_tile.h"  // header-only tile formats

namespace msh {

/// Result of one tile walk: the logical output columns present in the
/// tile, in ascending output_id order, and their accumulator values,
/// row-major [rows x output_ids.size()] (one row for a matvec).
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
  AdderTree sram_tree{128};  ///< rebuilt when the tile height changes
  AdderTree mram_tree{64};
  std::vector<u8> match;  ///< one segment's comparator outputs, one phase
  std::vector<i32> row_ids;  ///< each MRAM physical row's output id
  std::vector<i64> id_slot;  ///< output slot by id - lowest id
  /// The call's decode: each gated SRAM slot (valid MRAM entry) as its
  /// dense activation row and weight, run by run.
  std::vector<i32> gated_rows;
  std::vector<i8> gated_weights;
  std::vector<GatedRun> runs;
  std::vector<i32> partials;  ///< one MRAM row's products, tree inputs
};

/// Bit-serial SRAM PE matmul (paper §3.1, Fig 3) over `rows` activation
/// rows, `activations` row-major [rows x stride] with stride at least
/// tile.activation_len. The comparators gate each live segment's slots
/// against the M index phases once per call; per row, each gated slot
/// adds its weight to the bit planes its activation code sets, and the 8
/// plane sums go through the shift accumulator (MSB plane negative).
/// Pure: all accounting lands in `events` (summed over the rows), the
/// results in `out` (replaced).
void modeled_sram_matmul(const SramPeTile& tile,
                         std::span<const i8> activations, i64 rows,
                         PeEventCounts& events, ModeledScratch& scratch,
                         TileMatvec& out);

/// Near-memory MRAM PE matmul (paper §3.2, Fig 5) over `rows` activation
/// rows laid out as above: per row, one physical row per cycle through
/// the 3-stage sense/mux/accumulate pipeline. Pure: all accounting lands
/// in `events` (summed over the rows; `*pipeline`, when given, gets one
/// row's pass), the results in `out` (replaced).
void modeled_mram_matmul(const MramPeTile& tile,
                         std::span<const i8> activations, i64 rows,
                         PeEventCounts& events, ModeledScratch& scratch,
                         TileMatvec& out,
                         MramPipelineStats* pipeline = nullptr);

/// One-off single-row forms of the walks above, with call-local scratch.
TileMatvec modeled_sram_matvec(const SramPeTile& tile,
                               std::span<const i8> activations,
                               PeEventCounts& events);
TileMatvec modeled_mram_matvec(const MramPeTile& tile,
                               std::span<const i8> activations,
                               PeEventCounts& events,
                               MramPipelineStats* pipeline = nullptr);

}  // namespace msh
