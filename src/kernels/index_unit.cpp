#include "kernels/index_unit.h"

namespace msh {

IndexGenerator::IndexGenerator(i32 period) : period_(period) {
  MSH_REQUIRE(period_ >= 1);
}

void IndexGenerator::step() { current_ = (current_ + 1) % period_; }

ComparatorColumn::ComparatorColumn(i64 rows) : rows_(rows) {
  MSH_REQUIRE(rows_ >= 1);
}

}  // namespace msh
