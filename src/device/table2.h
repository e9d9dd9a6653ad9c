// The paper's Table 2 ("Hardware Specs") encoded as the calibrated
// component library. Every architecture-level result in the benches rolls
// up from these primitives — the same role the authors' Spectre/NVSIM/
// PIMA-SIM flow plays — so changing a primitive propagates through
// Fig 7 / Fig 8 reproductions.
//
// Power entries are total macro power at the nominal 1 GHz operating
// point; `leak_fraction` splits each into static leakage vs dynamic
// (read/compute) power. SRAM components leak substantially; MRAM cells do
// not leak at all (non-volatile), only their CMOS periphery does.
#pragma once

#include <string>
#include <vector>

#include "common/units.h"

namespace msh {

struct ComponentSpec {
  std::string name;
  Area area;
  Power power;          ///< total power at nominal activity
  f64 leak_fraction;    ///< share of `power` that is static leakage

  Power leakage() const { return power * leak_fraction; }
  Power dynamic() const { return power * (1.0 - leak_fraction); }
};

/// SRAM sparse PE (one 128x96 PIM array with 8 128-input 8-bit adder
/// trees, 128x8 comparators + index generators; Table 2 left half).
struct SramPeSpec {
  ComponentSpec decoder;
  ComponentSpec bit_cell;       ///< the whole 128x96 compute bit-cell array
  ComponentSpec shift_acc;
  ComponentSpec index_decoder;  ///< comparators + index generators
  ComponentSpec adder;          ///< the 8 adder trees
  ComponentSpec global_buffer;
  ComponentSpec global_relu;

  /// Buffer access energy: Table 2 lists 0.0004 mW per bit per access at
  /// the 1 ns cycle, i.e. 0.0004 pJ/bit.
  Energy buffer_energy_per_bit = Energy::pj(0.0004);

  Area total_area() const;
  Power total_power() const;
  Power total_leakage() const;

  /// Components present in a *dense* digital SRAM CIM macro (no sparse
  /// index handling) — used to model the ISSCC'21 baseline.
  Area dense_area() const;
};

/// MRAM sparse PE (one 1024x512 sub-array with near-memory periphery;
/// Table 2 right half). The memory array itself has no listed power:
/// MTJ cells do not leak, and read energy is accounted per access.
struct MramPeSpec {
  ComponentSpec memory_array;  ///< 1024 x 512 MTJ array (area only)
  ComponentSpec parallel_shift_acc;
  ComponentSpec col_decoder_driver;
  ComponentSpec row_decoder_driver;
  ComponentSpec adder_tree;

  f64 r_parallel_ohm = 4408.0;       ///< MTJ P-state resistance
  f64 r_antiparallel_ohm = 8759.0;   ///< MTJ AP-state resistance
  Energy set_reset_energy_per_bit = Energy::pj(0.048);

  Area total_area() const;
  Power total_power() const;
  Power total_leakage() const;
};

/// Geometry constants of the two PE macros (paper §3.1 / §5.2).
struct PeGeometry {
  // SRAM sparse PE: 128 x 96 = 8 column groups x (8b weight + 4b index).
  i64 sram_rows = 128;
  i64 sram_column_groups = 8;
  i64 sram_weight_bits = 8;
  i64 sram_index_bits = 4;
  i64 sram_weight_capacity_bits() const {
    return sram_rows * sram_column_groups * sram_weight_bits;
  }
  i64 sram_total_bits() const {
    return sram_rows * sram_column_groups *
           (sram_weight_bits + sram_index_bits);
  }

  // MRAM sparse PE: 1024 x 512 sub-array.
  i64 mram_rows = 1024;
  i64 mram_cols = 512;
  i64 mram_pair_bits = 12;  ///< 8b weight + 4b index per packed entry
  i64 mram_pairs_per_row() const { return mram_cols / mram_pair_bits; }
  i64 mram_capacity_bits() const { return mram_rows * mram_cols; }
};

/// The Table 2 numbers as published.
SramPeSpec table2_sram_pe();
MramPeSpec table2_mram_pe();
PeGeometry default_pe_geometry();

}  // namespace msh
