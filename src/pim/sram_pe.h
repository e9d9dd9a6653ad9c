// Functional, event-counting model of the bit-serial SRAM sparse PE
// (paper §3.1, Fig 3).
//
// Execution follows the paper's three steps exactly:
//  1. Activations stream bit-serially on the shared input word lines; the
//     8T compute cells form 1-bit AND partial products in place.
//  2. Per column group, the index generator cycles the M in-group
//     positions; 128 row comparators match it against the stored 4-bit
//     indices, gating matching rows into the adder tree.
//  3. The 128-input adder tree reduces each bit plane; the shift
//     accumulator compensates input bit significance (MSB negative); the
//     row-wise accumulator merges column groups that carry vertical
//     spill segments of the same logical output column.
//
// One matvec over a loaded tile takes M x 8 array cycles (M index phases
// x 8 input bit planes) plus the adder-tree pipeline depth.
#pragma once

#include <span>

#include "kernels/modeled.h"
#include "pim/events.h"
#include "pim/pe_tile.h"

namespace msh {

/// Result of one SRAM PE matvec: accumulator value per logical output
/// column present in the tile.
using SramPeOutput = TileMatvec;

class SramSparsePe {
 public:
  SramSparsePe();

  /// Loads compressed weights + indices, counting the write events (SRAM
  /// writes are cheap and fast — the reason the learnable Rep-Net path
  /// lives here).
  void load(SramPeTile tile);
  const SramPeTile& tile() const { return tile_; }
  bool loaded() const { return !tile_.empty(); }

  /// Executes one sparse matrix-vector product against an INT8 dense
  /// activation vector of length tile().activation_len. Bit-exact w.r.t.
  /// the quantized_matmul_raw reference.
  SramPeOutput matvec(std::span<const i8> activations);

  /// Merges the events of a walk over this PE's tile into its counters:
  /// the core's dispatch runs modeled_sram_matmul on tile() and lands the
  /// events here.
  void absorb_events(const PeEventCounts& events) { events_ += events; }

  const PeEventCounts& events() const { return events_; }
  void reset_events() { events_ = {}; }

 private:
  friend class HybridCore;

  /// Direct cell access for fault injection and ECC scrub — models the
  /// array being corrupted/repaired underneath the datapath, so it
  /// bypasses write-event accounting on purpose. Reachable only through
  /// HybridCore::nvm_codes, which marks the deployment's raw packed
  /// form stale.
  SramPeTile& mutable_tile() { return tile_; }

  SramPeTile tile_;
  PeEventCounts events_;
};

}  // namespace msh
