// Bump arena for per-dispatch kernel scratch. The raw backend allocates
// its code planes, widened activation blocks and offset tables here
// instead of the heap: one reset() per dispatch, zero frees, and steady
// state reuses a single slab sized at the high-water mark — no allocator
// traffic on the serving fast path.
//
// Under AddressSanitizer the arena makes its slabs visible to it: reset()
// poisons every slab, each alloc() unpoisons exactly its own bytes, and
// a red zone separates consecutive allocations, so a kernel that reads
// past the span it was given (a wrong plane margin, a tile overhang)
// faults instead of silently reading a neighbour's scratch.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "common/types.h"

#if defined(__SANITIZE_ADDRESS__)
#define MSH_ARENA_POISONS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MSH_ARENA_POISONS 1
#endif
#endif
#ifndef MSH_ARENA_POISONS
#define MSH_ARENA_POISONS 0
#endif

namespace msh {

class KernelArena {
 public:
  /// True when this build poisons unallocated arena bytes for ASan.
  static constexpr bool kPoisons = MSH_ARENA_POISONS != 0;

  /// Uninitialized storage for `count` trivially-destructible Ts, valid
  /// until the next reset(). Alignment follows the type.
  template <typename T>
  std::span<T> alloc(i64 count) {
    static_assert(std::is_trivially_destructible_v<T>);
    MSH_REQUIRE(count >= 0);
    if (count == 0) return {};
    std::byte* p =
        bump(static_cast<size_t>(count) * sizeof(T), alignof(T));
    return {reinterpret_cast<T*>(p), static_cast<size_t>(count)};
  }

  /// Invalidates every outstanding span. Coalesces the chunk list into
  /// one slab at the high-water mark, so a steady-state dispatch loop
  /// stops allocating after the first iteration.
  void reset();

  /// Total bytes currently reserved from the heap.
  size_t bytes_reserved() const;

 private:
  /// Poisoned bytes after each allocation, and the alignment every
  /// allocation starts at, when the arena poisons (0 and 1 otherwise).
  static constexpr size_t kRedZone = kPoisons ? 32 : 0;
  static constexpr size_t kMinAlign = kPoisons ? 8 : 1;

  std::byte* bump(size_t bytes, size_t align);

  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    size_t size = 0;
    size_t used = 0;
  };
  /// Allocates a chunk, fully poisoned.
  static Chunk make_chunk(size_t size);

  std::vector<Chunk> chunks_;
  size_t high_water_ = 0;  ///< peak sum of used bytes across resets
};

}  // namespace msh
