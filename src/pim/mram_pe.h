// Functional, event-counting model of the near-memory MRAM sparse PE
// (paper §3.2, Fig 5).
//
// The 1024x512 MTJ array stores compressed (weight, index) pairs; all
// arithmetic happens in CMOS periphery. Per physical row, the pipeline
// runs three stages (Fig 5-5):
//   S1 read the row's indices + weights through the sense amps,
//   S2 the MUX selects the addressed activations from the buffer,
//   S3 the parallel shift-and-accumulate forms the products, the adder
//      tree reduces them, and the column accumulator integrates.
// Throughput is one row per cycle once the pipeline fills, so a matvec
// over R used rows takes R + 2 cycles.
//
// Writes (backbone deployment only — MRAM weights are frozen during
// on-device learning) toggle MTJs at the Table 2 set/reset energy with
// the long STT write pulse; a read-before-write policy only toggles
// changed bits.
#pragma once

#include <span>

#include "kernels/modeled.h"
#include "pim/events.h"
#include "pim/pe_tile.h"

namespace msh {

using MramPeOutput = TileMatvec;

class MramSparsePe {
 public:
  MramSparsePe();

  /// Programs the array. Counts MTJ set/reset events for every bit that
  /// differs from the previously stored contents (all bits on first
  /// program of a row).
  void program(MramPeTile tile);
  const MramPeTile& tile() const { return tile_; }
  bool loaded() const { return !tile_.empty(); }

  /// One sparse matvec against an INT8 dense activation vector. Bit-exact
  /// w.r.t. the quantized reference.
  MramPeOutput matvec(std::span<const i8> activations);

  /// Merges the events of a walk over this PE's tile into its counters:
  /// the core's dispatch runs modeled_mram_matmul on tile() and lands the
  /// events here.
  void absorb_events(const PeEventCounts& events) { events_ += events; }

  /// Pipeline stats of the last matvec.
  const MramPipelineStats& last_pipeline() const { return last_pipeline_; }

  const PeEventCounts& events() const { return events_; }
  void reset_events() { events_ = {}; }

 private:
  friend class HybridCore;

  /// Direct cell access for fault injection and ECC scrub — models MTJs
  /// flipping/being repaired underneath the periphery, so it bypasses
  /// write-event accounting on purpose. Reachable only through
  /// HybridCore::nvm_codes, which marks the deployment's raw packed
  /// form stale.
  MramPeTile& mutable_tile() { return tile_; }

  MramPeTile tile_;
  MramPipelineStats last_pipeline_;
  PeEventCounts events_;
  bool programmed_once_ = false;
};

}  // namespace msh
