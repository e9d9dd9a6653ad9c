// Standard reflected CRC-32 (IEEE 802.3, polynomial 0xEDB88320): the
// integrity check of deployment images and journal frames.
#pragma once

#include <cstddef>

#include "common/types.h"

namespace msh {

u32 crc32(const char* data, size_t len);

}  // namespace msh
