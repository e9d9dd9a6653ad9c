#include "kernels/arena.h"

#include <algorithm>

#if MSH_ARENA_POISONS
#include <sanitizer/asan_interface.h>
#define MSH_POISON(p, n) ASAN_POISON_MEMORY_REGION(p, n)
#define MSH_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION(p, n)
#else
#define MSH_POISON(p, n) ((void)(p), (void)(n))
#define MSH_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace msh {

KernelArena::Chunk KernelArena::make_chunk(size_t size) {
  Chunk chunk;
  chunk.data = std::make_unique<std::byte[]>(size);
  chunk.size = size;
  MSH_POISON(chunk.data.get(), size);
  return chunk;
}

std::byte* KernelArena::bump(size_t bytes, size_t align) {
  align = std::max(align, kMinAlign);
  if (!chunks_.empty()) {
    Chunk& chunk = chunks_.back();
    const size_t base = reinterpret_cast<size_t>(chunk.data.get());
    const size_t aligned =
        ((base + chunk.used + align - 1) & ~(align - 1)) - base;
    if (aligned + bytes + kRedZone <= chunk.size) {
      chunk.used = aligned + bytes + kRedZone;
      MSH_UNPOISON(chunk.data.get() + aligned, bytes);
      return chunk.data.get() + aligned;
    }
  }
  // Geometric growth keeps the chunk count logarithmic within one
  // dispatch; reset() collapses the list back to a single slab.
  size_t size = chunks_.empty() ? 4096 : chunks_.back().size * 2;
  if (size < bytes + align + kRedZone) size = bytes + align + kRedZone;
  Chunk chunk = make_chunk(size);
  const size_t base =
      reinterpret_cast<size_t>(chunk.data.get()) & (align - 1);
  const size_t offset = base == 0 ? 0 : align - base;
  chunk.used = offset + bytes + kRedZone;
  std::byte* p = chunk.data.get() + offset;
  MSH_UNPOISON(p, bytes);
  chunks_.push_back(std::move(chunk));
  return p;
}

void KernelArena::reset() {
  size_t used = 0;
  for (const Chunk& chunk : chunks_) used += chunk.used;
  if (used > high_water_) high_water_ = used;
  if (chunks_.size() == 1 && chunks_.front().size >= high_water_) {
    Chunk& slab = chunks_.front();
    MSH_POISON(slab.data.get(), slab.size);
    slab.used = 0;
    return;
  }
  chunks_.clear();
  if (high_water_ == 0) return;
  chunks_.push_back(make_chunk(high_water_ + alignof(std::max_align_t)));
}

size_t KernelArena::bytes_reserved() const {
  size_t total = 0;
  for (const Chunk& chunk : chunks_) total += chunk.size;
  return total;
}

}  // namespace msh
