// Modeled backend kernels: the side-effect-free functional walks of both
// PE datapaths, lifted out of the PE classes so the PEs are thin wrappers
// that attach event accounting to state (load/program/absorb). One call
// computes one tile's sparse matvec and the exact event deltas the
// hardware walk would produce; callers own where the events land.
//
// These kernels are the arithmetic source of truth: the raw backend
// (flat_csc.h) is verified bit-identical against them. They stay an
// independent second arithmetic path on purpose (DESIGN §5j): the SRAM
// walk reduces gated bit planes through the adder tree and shift
// accumulator, never sum(w * x), and every call reads the live tile
// cells, so a cell written since the last call is always seen.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "kernels/adder_tree.h"
#include "pim/events.h"   // header-only event counter format
#include "pim/pe_tile.h"  // header-only tile formats

namespace msh {

/// Result of one tile matvec: accumulator value per logical output
/// column present in the tile, in ascending output_id order.
struct TileMatvec {
  std::vector<i32> output_ids;
  std::vector<i64> values;
};

/// Cycle-accounting snapshot of the MRAM PE's 3-stage pipeline.
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

/// Working storage of the modeled walks, owned by one caller (a
/// dispatch, or one lane of a parallel dispatch) and passed to each call
/// it makes. The buffers grow to their high-water mark on the first
/// tiles and are reused after that, so a warmed walk allocates nothing.
/// Nothing in here outlives a call as state: each call rebuilds what it
/// reads from the live tile.
struct ModeledScratch {
  AdderTree sram_tree{128};  ///< rebuilt when the tile height changes
  AdderTree mram_tree{64};
  std::vector<u8> match;        ///< one segment's comparator outputs
  std::vector<i8> pair_weights; ///< matched slots' weights, one phase
  std::vector<i8> pair_codes;   ///< their activation codes
  std::vector<i32> partials;    ///< one bit plane's gated tree inputs
  /// (output id, shift-accumulator value) of each live segment.
  std::vector<std::pair<i32, i64>> segments;
  std::vector<i64> row_acc;     ///< MRAM column accumulators, by id
  std::vector<u8> row_touched;  ///< ids at least one used row serves
};

/// Bit-serial SRAM PE matvec (paper §3.1, Fig 3): M index phases x 8
/// input bit planes through comparator / adder-tree / shift-accumulator
/// datapath models, over the segments that serve an output. Pure: all
/// accounting lands in `events`, the results in `out` (replaced).
void modeled_sram_matvec(const SramPeTile& tile,
                         std::span<const i8> activations,
                         PeEventCounts& events, ModeledScratch& scratch,
                         TileMatvec& out);

/// Near-memory MRAM PE matvec (paper §3.2, Fig 5): one physical row per
/// cycle through the 3-stage sense/mux/accumulate pipeline. Pure: all
/// accounting lands in `events` (and `*pipeline` when given), the
/// results in `out` (replaced).
void modeled_mram_matvec(const MramPeTile& tile,
                         std::span<const i8> activations,
                         PeEventCounts& events, ModeledScratch& scratch,
                         TileMatvec& out,
                         MramPipelineStats* pipeline = nullptr);

/// One-off forms of the walks above, with call-local scratch.
TileMatvec modeled_sram_matvec(const SramPeTile& tile,
                               std::span<const i8> activations,
                               PeEventCounts& events);
TileMatvec modeled_mram_matvec(const MramPeTile& tile,
                               std::span<const i8> activations,
                               PeEventCounts& events,
                               MramPipelineStats* pipeline = nullptr);

}  // namespace msh
