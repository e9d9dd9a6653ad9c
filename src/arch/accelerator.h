// Functional hybrid core: the executable composition of Fig 1 — mapper,
// buffer, bus, scheduler, and both PE types. Deployed weight matrices run
// real sparse matvecs through the PE functional models; results are merged
// by the core's shared accumulators and verified bit-exact against the
// quantized reference in tests.
#pragma once

#include <memory>
#include <span>

#include "arch/buffer.h"
#include "arch/bus.h"
#include "arch/scheduler.h"
#include "arch/topology.h"
#include "kernels/arena.h"
#include "kernels/backend.h"
#include "kernels/direct_conv.h"
#include "kernels/flat_csc.h"
#include "mapping/csc_mapper.h"
#include "pim/mram_pe.h"
#include "pim/sram_pe.h"

namespace msh {

struct HybridCoreOptions {
  CoreConfig topology = {};
  i64 sram_pe_pool = 16;  ///< physical SRAM PEs (time-shared if fewer
                          ///< than tiles)
  i64 buffer_bytes = 1 << 16;
  i64 bus_width_bits = 256;
  SramMappingOptions sram_map = {};
  MramMappingOptions mram_map = {};
  /// Compute backend for matvec/matmul/conv (DESIGN §5i): kModeled walks
  /// the functional PE datapaths with full event/cycle accounting; kRaw
  /// runs the SIMD kernels over a packed copy of the same live cells —
  /// bit-identical outputs, but PE/bus/buffer events stay untouched and
  /// last_makespan()/last_utilization() report zero.
  KernelBackend backend = KernelBackend::kModeled;
};

class HybridCore {
 public:
  using Options = HybridCoreOptions;

  explicit HybridCore(Options options = {});

  /// Deploys a weight matrix onto SRAM sparse PEs (learnable path).
  /// Returns a handle for execution.
  i64 deploy_sram(const QuantizedNmMatrix& w);
  /// Deploys onto MRAM sparse PEs (frozen backbone path).
  i64 deploy_mram(const QuantizedNmMatrix& w);

  /// Rewrites an existing SRAM deployment with updated weights (the
  /// continual-learning write path). Shape and packing must match the
  /// original deployment; write events accumulate on the PEs.
  void redeploy_sram(i64 handle, const QuantizedNmMatrix& w);

  /// y = x * W for INT8 x (length = dense_rows); INT32 accumulators out
  /// (length = cols).
  std::vector<i32> matvec(i64 handle, std::span<const i8> activations);

  /// Batched version: x is row-major [batch x dense_rows]. Rows stream
  /// one after another through the deployment's PE tiles, so on the
  /// modeled backend last_makespan() is batch x the one-row SIMT
  /// makespan.
  std::vector<i32> matmul(i64 handle, std::span<const i8> activations,
                          i64 batch);

  /// matmul() into a caller-owned [batch x cols] buffer. On the raw
  /// backend the dispatch then allocates nothing on the heap (unless it
  /// repacks a written deployment): its widened activations and offset
  /// tables live in the core's kernel arena, reused at its high-water
  /// mark. On the modeled backend the walk's scratch lives in the
  /// core's WalkLane, so a warmed dispatch allocates a fixed number of
  /// times (its schedule), whatever the batch.
  void matmul_into(i64 handle, std::span<const i8> activations, i64 batch,
                   std::span<i32> out);

  /// A conv through the deployment, whose dense rows are the (channel,
  /// ky, kx) taps of `layout`'s kernel: `planes` holds the input's code
  /// planes (quantize_conv_planes, or a sibling conv's planes read
  /// through ConvPlanes::sibling_view), and out[c * layout.positions + q]
  /// receives output channel c's INT32 accumulator at position q =
  /// layout.position(image, oy, ox); other lanes are unspecified. Raw:
  /// direct_conv straight from the planes, with no heap allocation unless
  /// it repacks a written deployment. Modeled: the PE walks (with their
  /// events) read the same planes as a lane view, one lane per position,
  /// and count only the batch x out_h x out_w valid positions as rows.
  /// Both backends produce identical accumulators.
  void conv_into(i64 handle, std::span<const i16> planes,
                 const ConvPlanes& layout, std::span<i32> out);

  /// Scratch for one layer dispatch's temporaries in the wrappers that
  /// feed this core (a conv's own input planes, quantized inputs,
  /// accumulators). Each layer dispatch resets it at its start; the core
  /// itself never does, so spans taken from it stay valid across
  /// matmul_into() and conv_into(). Nothing in it outlives the dispatch.
  /// Same single-thread contract as the core.
  KernelArena& io_scratch() { return io_arena_; }

  /// Scratch for every code plane that outlives one dispatch: an
  /// activation quantized once and read by every conv it feeds, or a
  /// conv's output written as its reader's codes (pim_layer.h,
  /// ActivationCodes, PimConv::forward_codes). Whoever runs the whole
  /// forward resets it at the start of each; layer dispatches never do.
  /// Same single-thread contract as the core.
  KernelArena& activation_scratch() { return activation_arena_; }

  /// Heap bytes held by the core's kernel, I/O and activation arenas:
  /// constant once a repeated workload has reached its high-water mark.
  size_t scratch_bytes_reserved() const {
    return arena_.bytes_reserved() + io_arena_.bytes_reserved() +
           activation_arena_.bytes_reserved();
  }

  /// Pointer view over one deployment's PE-resident compressed codes —
  /// the physical surface where NVM faults land and ECC scrubs repair.
  /// Only valid (non-padding) slots are exposed: padding cells never
  /// feed a MAC, so corrupting them is a no-op. Pointer order is the
  /// deterministic deploy order (PE, then slot), stable across runs.
  /// Pointers are invalidated by redeploy of the same handle.
  ///
  /// This is the only mutable path to deployed cells, and the contract
  /// that keeps the raw backend's packed weights honest: obtaining a
  /// view marks the deployment's packed form stale (the next raw
  /// dispatch on `handle` repacks from the cells), so every write
  /// through the view must land before the next dispatch on that handle.
  /// A view kept across a dispatch and written afterwards would leave
  /// the raw backend computing on the old cells.
  struct NvmCodeView {
    bool is_sram = false;
    i32 index_bits = 0;        ///< stored bits per index cell group
    std::vector<i8*> weights;  ///< INT8 weight cells
    std::vector<u8*> indices;  ///< N:M intra-group index cells
  };
  NvmCodeView nvm_codes(i64 handle);

  i64 num_deployments() const {
    return static_cast<i64>(deployments_.size());
  }
  bool deployment_is_sram(i64 handle) const;

  /// Cycle makespan of the last matvec/matmul, from the SIMT schedule
  /// over the physical PE pool: batch x the one-row makespan, a function
  /// of the workload and the modeled pool alone.
  i64 last_makespan() const { return last_makespan_; }
  f64 last_utilization() const { return last_utilization_; }

  /// Switches the compute backend of subsequent dispatches. Deployments
  /// are backend-independent (both backends read the same live tile
  /// cells), so switching between dispatches is safe and changes no cell.
  void set_backend(KernelBackend backend) { options_.backend = backend; }

  /// Times a raw dispatch has packed a deployment's cells: once after
  /// each deploy or cell write (redeploy_sram, nvm_codes) that a raw
  /// dispatch then reads, never for a clean deployment.
  i64 packs() const { return packs_; }

  /// Aggregated PE events since construction (or the last reset).
  PeEventCounts pe_events() const;
  const Bus& bus() const { return bus_; }
  const ActivationBuffer& buffer() const { return buffer_; }
  i64 shared_accumulator_ops() const { return shared_acc_ops_; }
  void reset_events();

 private:
  struct Deployment {
    bool is_sram = false;
    i64 cols = 0;
    i64 dense_rows = 0;
    std::vector<std::unique_ptr<SramSparsePe>> sram_pes;
    std::vector<std::unique_ptr<MramSparsePe>> mram_pes;
    /// The raw backend's resident copy of the cells, valid unless stale.
    PackedCsc packed;
    bool packed_stale = true;
    i64 pe_count() const {
      return static_cast<i64>(is_sram ? sram_pes.size() : mram_pes.size());
    }
  };

  /// Working storage of the modeled walk. The core keeps one and reuses
  /// it at its high-water mark, so a warmed modeled dispatch allocates
  /// nothing per row. Only results live here, never cell-derived state:
  /// each tile walk decodes the live cells afresh.
  struct WalkLane {
    ModeledScratch walk;    ///< the PE walks' buffers
    TileMatvec pe_out;      ///< one PE's results over the dispatch's lanes
    std::vector<i64> acc;   ///< merged accumulators [cols x lanes]
    std::vector<u8> touched;        ///< [cols] columns a PE already served
    std::vector<i64> tile_cycles;   ///< per PE one-row cycle cost
  };

  Deployment& checked_deployment(i64 handle, std::span<const i8> activations,
                                 i64 batch);

  /// The deployment's packed form, repacked from the live cells first
  /// if a write made it stale.
  FlatCsc resident(Deployment& dep);
  /// Raw-backend dispatch: runs the SIMD matmul over the resident packed
  /// weights into `out`. No accounting.
  void raw_matmul(Deployment& dep, std::span<const i8> activations, i64 batch,
                  std::span<i32> out);
  /// Modeled-backend matmul into `out`: the rows transposed into a lane
  /// view, then modeled_walk().
  void modeled_matmul(Deployment& dep, std::span<const i8> activations,
                      i64 batch, std::span<i32> out);
  /// Modeled-backend walk over `view` into walk_.acc ([cols x lanes]),
  /// tile-outer (one weight-stationary walk per PE tile over all the
  /// view's lanes), with the full per-row bus/buffer/PE accounting and
  /// the SIMT schedule.
  void modeled_walk(Deployment& dep, const LaneView& view);

  Options options_;
  KernelArena arena_;     ///< raw-backend scratch, reset per dispatch
  KernelArena io_arena_;  ///< layer-wrapper scratch (io_scratch())
  KernelArena activation_arena_;  ///< forward scratch (activation_scratch())
  Bus bus_;
  ActivationBuffer buffer_;
  std::vector<Deployment> deployments_;
  WalkLane walk_;  ///< modeled-walk scratch
  i64 last_makespan_ = 0;
  f64 last_utilization_ = 0.0;
  i64 shared_acc_ops_ = 0;
  i64 packs_ = 0;
};

}  // namespace msh
