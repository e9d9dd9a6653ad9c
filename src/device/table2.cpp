#include "device/table2.h"

namespace msh {

Area SramPeSpec::total_area() const {
  return decoder.area + bit_cell.area + shift_acc.area + index_decoder.area +
         adder.area + global_buffer.area + global_relu.area;
}

Power SramPeSpec::total_power() const {
  return decoder.power + bit_cell.power + shift_acc.power +
         index_decoder.power + adder.power + global_relu.power;
}

Power SramPeSpec::total_leakage() const {
  return decoder.leakage() + bit_cell.leakage() + shift_acc.leakage() +
         index_decoder.leakage() + adder.leakage() + global_relu.leakage();
}

Area SramPeSpec::dense_area() const {
  return decoder.area + bit_cell.area + shift_acc.area + adder.area +
         global_buffer.area + global_relu.area;
}

Area MramPeSpec::total_area() const {
  return memory_array.area + parallel_shift_acc.area +
         col_decoder_driver.area + row_decoder_driver.area + adder_tree.area;
}

Power MramPeSpec::total_power() const {
  return memory_array.power + parallel_shift_acc.power +
         col_decoder_driver.power + row_decoder_driver.power +
         adder_tree.power;
}

Power MramPeSpec::total_leakage() const {
  return memory_array.leakage() + parallel_shift_acc.leakage() +
         col_decoder_driver.leakage() + row_decoder_driver.leakage() +
         adder_tree.leakage();
}

SramPeSpec table2_sram_pe() {
  // Leakage fractions: SRAM cell arrays are leakage-dominated at the edge
  // operating point the paper targets (its Fig 7 attributes the SRAM
  // design's power mostly to leakage); synthesized digital logic (adder
  // trees, shift accumulators) leaks a much smaller share.
  return SramPeSpec{
      .decoder = {"decoder", Area::mm2(0.0168), Power::mw(0.96), 0.30},
      .bit_cell = {"bit_cell_128x96", Area::mm2(0.0231), Power::mw(1.2),
                   0.70},
      .shift_acc = {"shift_acc", Area::mm2(0.0148), Power::mw(4.2), 0.15},
      .index_decoder = {"index_decoder", Area::mm2(0.06), Power::mw(7.4),
                        0.20},
      .adder = {"adder_trees_8x128in", Area::mm2(0.14), Power::mw(12.11),
                0.15},
      .global_buffer = {"global_buffer", Area::mm2(0.0065), Power::mw(0.0),
                        0.0},
      .global_relu = {"global_relu", Area::mm2(0.00719), Power::mw(0.12),
                      0.20},
  };
}

MramPeSpec table2_mram_pe() {
  // MTJ cells are non-volatile: the array itself has zero static power
  // (Table 2 lists no power for the memory array). Only the CMOS
  // periphery draws power.
  return MramPeSpec{
      .memory_array = {"memory_array_1024x512", Area::mm2(0.00686),
                       Power::mw(0.0), 0.0},
      .parallel_shift_acc = {"parallel_shift_acc", Area::mm2(0.00258),
                             Power::mw(0.834), 0.15},
      .col_decoder_driver = {"col_decoder_driver", Area::mm2(0.0243),
                             Power::mw(1.58), 0.25},
      .row_decoder_driver = {"row_decoder_driver", Area::mm2(0.0037),
                             Power::mw(0.68), 0.25},
      .adder_tree = {"adder_tree", Area::mm2(0.044), Power::mw(16.3), 0.15},
  };
}

PeGeometry default_pe_geometry() { return PeGeometry{}; }

}  // namespace msh
