#include "nn/init.h"

#include <cmath>

namespace msh {

Tensor kaiming_normal(Shape shape, i64 fan_in, Rng& rng) {
  MSH_REQUIRE(fan_in > 0);
  const f32 stddev = std::sqrt(2.0f / static_cast<f32>(fan_in));
  return Tensor::randn(std::move(shape), rng, 0.0f, stddev);
}

}  // namespace msh
