#include "arch/buffer.h"

namespace msh {

ActivationBuffer::ActivationBuffer(i64 capacity_bytes)
    : capacity_bytes_(capacity_bytes) {
  MSH_REQUIRE(capacity_bytes_ > 0);
}

bool ActivationBuffer::load(i64 bytes) {
  if (bytes > capacity_bytes_) return false;
  bytes_loaded_ += bytes;
  return true;
}

}  // namespace msh
