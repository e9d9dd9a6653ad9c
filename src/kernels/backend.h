// Two-tier executor backends (DESIGN §5i).
//
// Every PE/core compute path runs through one of two interchangeable
// kernel backends:
//   kModeled - the functional PE walk with full event/bus/buffer cycle
//              accounting. Source of truth for every modeled metric,
//              bench figure and energy number.
//   kRaw     - SIMD host kernels over a packed copy of the same live
//              tile cells. Outputs (and therefore published images) are
//              bit-identical to the modeled walk; cycle/energy metrics
//              are modeled-only and report zero on this backend.
//
// The modeled backend reads the PE-resident cells on every dispatch; the
// raw backend's packed copy is marked stale by every cell write
// (HybridCore::nvm_codes, redeploy) and repacked on its next dispatch.
// Fault injection, ECC scrub and wear-tracked programming compose with
// either by construction.
#pragma once

namespace msh {

enum class KernelBackend {
  kModeled = 0,
  kRaw = 1,
};

inline const char* to_string(KernelBackend backend) {
  return backend == KernelBackend::kRaw ? "raw" : "modeled";
}

}  // namespace msh
