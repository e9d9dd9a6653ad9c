// Weight initialization schemes.
#pragma once

#include "common/rng.h"
#include "tensor/tensor.h"

namespace msh {

/// Kaiming-He normal init for ReLU networks: N(0, sqrt(2 / fan_in)).
Tensor kaiming_normal(Shape shape, i64 fan_in, Rng& rng);

}  // namespace msh
