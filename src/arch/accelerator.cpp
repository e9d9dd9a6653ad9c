#include "arch/accelerator.h"

#include <algorithm>

namespace msh {

HybridCore::HybridCore(Options options)
    : options_(options),
      bus_(options.bus_width_bits),
      buffer_(options.buffer_bytes) {}

i64 HybridCore::deploy_sram(const QuantizedNmMatrix& w) {
  Deployment dep;
  dep.is_sram = true;
  dep.cols = w.cols();
  dep.dense_rows = w.dense_rows();
  for (auto& tile : map_to_sram_pes(w, options_.sram_map)) {
    auto pe = std::make_unique<SramSparsePe>();
    // Weight distribution rides the bus: one hop core -> PE.
    bus_.transfer(tile.rows * tile.groups * (8 + tile.cfg.index_bits()));
    pe->load(std::move(tile));
    dep.sram_pes.push_back(std::move(pe));
  }
  deployments_.push_back(std::move(dep));
  return static_cast<i64>(deployments_.size()) - 1;
}

i64 HybridCore::deploy_mram(const QuantizedNmMatrix& w) {
  Deployment dep;
  dep.is_sram = false;
  dep.cols = w.cols();
  dep.dense_rows = w.dense_rows();
  for (auto& tile : map_to_mram_pes(w, options_.mram_map)) {
    auto pe = std::make_unique<MramSparsePe>();
    i64 bits = 0;
    for (const auto& row : tile.rows)
      bits += static_cast<i64>(row.entries.size()) *
              (8 + tile.cfg.index_bits());
    bus_.transfer(bits);
    pe->program(std::move(tile));
    dep.mram_pes.push_back(std::move(pe));
  }
  deployments_.push_back(std::move(dep));
  return static_cast<i64>(deployments_.size()) - 1;
}

void HybridCore::redeploy_sram(i64 handle, const QuantizedNmMatrix& w) {
  MSH_REQUIRE(handle >= 0 &&
              handle < static_cast<i64>(deployments_.size()));
  Deployment& dep = deployments_[static_cast<size_t>(handle)];
  MSH_REQUIRE(dep.is_sram);
  MSH_REQUIRE(dep.cols == w.cols() && dep.dense_rows == w.dense_rows());
  auto tiles = map_to_sram_pes(w, options_.sram_map);
  MSH_REQUIRE(tiles.size() == dep.sram_pes.size());
  for (size_t i = 0; i < tiles.size(); ++i) {
    bus_.transfer(tiles[i].rows * tiles[i].groups *
                  (8 + tiles[i].cfg.index_bits()));
    dep.sram_pes[i]->load(std::move(tiles[i]));
  }
  dep.packed_stale = true;
}

HybridCore::NvmCodeView HybridCore::nvm_codes(i64 handle) {
  MSH_REQUIRE(handle >= 0 &&
              handle < static_cast<i64>(deployments_.size()));
  Deployment& dep = deployments_[static_cast<size_t>(handle)];
  // The caller may write any cell through the view (see the contract in
  // the header): the packed form is stale from here on.
  dep.packed_stale = true;
  NvmCodeView view;
  view.is_sram = dep.is_sram;
  if (dep.is_sram) {
    for (auto& pe : dep.sram_pes) {
      SramPeTile& tile = pe->mutable_tile();
      view.index_bits = tile.cfg.index_bits();
      const i64 slots = tile.rows * tile.groups;
      for (i64 s = 0; s < slots; ++s) {
        if (!tile.valid[static_cast<size_t>(s)]) continue;
        view.weights.push_back(&tile.weights[static_cast<size_t>(s)]);
        view.indices.push_back(&tile.indices[static_cast<size_t>(s)]);
      }
    }
  } else {
    for (auto& pe : dep.mram_pes) {
      MramPeTile& tile = pe->mutable_tile();
      view.index_bits = tile.cfg.index_bits();
      for (auto& row : tile.rows) {
        for (auto& entry : row.entries) {
          if (!entry.valid) continue;
          view.weights.push_back(&entry.weight);
          view.indices.push_back(&entry.index);
        }
      }
    }
  }
  return view;
}

bool HybridCore::deployment_is_sram(i64 handle) const {
  MSH_REQUIRE(handle >= 0 &&
              handle < static_cast<i64>(deployments_.size()));
  return deployments_[static_cast<size_t>(handle)].is_sram;
}

FlatCsc HybridCore::resident(Deployment& dep) {
  if (dep.packed_stale) {
    if (dep.is_sram) {
      std::vector<const SramPeTile*> tiles;
      for (const auto& pe : dep.sram_pes) tiles.push_back(&pe->tile());
      dep.packed = pack_csc_sram(tiles, dep.cols, dep.dense_rows);
    } else {
      std::vector<const MramPeTile*> tiles;
      for (const auto& pe : dep.mram_pes) tiles.push_back(&pe->tile());
      dep.packed = pack_csc_mram(tiles, dep.cols, dep.dense_rows);
    }
    dep.packed_stale = false;
    ++packs_;
  }
  return dep.packed.view();
}

void HybridCore::raw_matmul(Deployment& dep, std::span<const i8> activations,
                            i64 batch, std::span<i32> out) {
  arena_.reset();
  raw_csc_matmul(resident(dep), activations, batch, out, arena_);
  // Cycle metrics are modeled-only: the raw backend reports zero.
  last_makespan_ = 0;
  last_utilization_ = 0.0;
}

HybridCore::Deployment& HybridCore::checked_deployment(
    i64 handle, std::span<const i8> activations, i64 batch) {
  MSH_REQUIRE(handle >= 0 &&
              handle < static_cast<i64>(deployments_.size()));
  Deployment& dep = deployments_[static_cast<size_t>(handle)];
  MSH_REQUIRE(static_cast<i64>(activations.size()) ==
              batch * dep.dense_rows);
  return dep;
}

std::vector<i32> HybridCore::matvec(i64 handle,
                                    std::span<const i8> activations) {
  return matmul(handle, activations, 1);
}

std::vector<i32> HybridCore::matmul(i64 handle,
                                    std::span<const i8> activations,
                                    i64 batch) {
  Deployment& dep = checked_deployment(handle, activations, batch);
  std::vector<i32> out(static_cast<size_t>(batch * dep.cols));
  if (options_.backend == KernelBackend::kRaw) {
    raw_matmul(dep, activations, batch, out);
  } else {
    modeled_matmul(dep, activations, batch, out);
  }
  return out;
}

void HybridCore::matmul_into(i64 handle, std::span<const i8> activations,
                             i64 batch, std::span<i32> out) {
  Deployment& dep = checked_deployment(handle, activations, batch);
  MSH_REQUIRE(static_cast<i64>(out.size()) == batch * dep.cols);
  if (options_.backend == KernelBackend::kRaw) {
    raw_matmul(dep, activations, batch, out);
  } else {
    modeled_matmul(dep, activations, batch, out);
  }
}

void HybridCore::conv_into(i64 handle, std::span<const i16> planes,
                           const ConvPlanes& layout, std::span<i32> out) {
  MSH_REQUIRE(handle >= 0 &&
              handle < static_cast<i64>(deployments_.size()));
  Deployment& dep = deployments_[static_cast<size_t>(handle)];
  MSH_REQUIRE(static_cast<i64>(planes.size()) == layout.size());
  MSH_REQUIRE(static_cast<i64>(out.size()) == dep.cols * layout.positions);
  MSH_REQUIRE(layout.k() <= dep.dense_rows);
  arena_.reset();
  if (options_.backend == KernelBackend::kRaw) {
    direct_conv(resident(dep), planes.data(), layout, out.data(), arena_);
    last_makespan_ = 0;
    last_utilization_ = 0.0;
    return;
  }

  // One lane per position, straight from the planes. Only the valid
  // positions are rows the hardware streams: the padding ring's lanes
  // are walked and dropped, and their codes stay out of the SRAM walk's
  // buffer reads.
  std::span<i64> row_off = arena_.alloc<i64>(dep.dense_rows);
  layout.row_offsets(row_off);
  LaneView view{planes.data(), row_off, layout.positions,
                layout.batch * layout.out_h * layout.out_w, {}};
  if (dep.is_sram) {
    std::span<i64> tap_bits = arena_.alloc<i64>(dep.dense_rows);
    count_tap_bits(planes.data(), layout, row_off,
                   arena_.alloc<i16>(layout.plane_len),
                   arena_.alloc<i16>(layout.positions), tap_bits);
    view.tap_bits = tap_bits;
  }
  modeled_walk(dep, view);
  for (size_t j = 0; j < out.size(); ++j)
    out[j] = static_cast<i32>(walk_.acc[j]);
}

void HybridCore::modeled_matmul(Deployment& dep,
                                std::span<const i8> activations, i64 batch,
                                std::span<i32> out) {
  if (batch == 0) {
    last_makespan_ = 0;
    return;
  }
  // The rows transposed into lanes, one lane per row.
  arena_.reset();
  const i64 lanes = walk_lanes(batch);
  const LaneView view = lanes_from_rows(
      activations.data(), batch, dep.dense_rows,
      arena_.alloc<i16>(dep.dense_rows * lanes),
      arena_.alloc<i64>(dep.dense_rows), arena_.alloc<i64>(dep.dense_rows));
  modeled_walk(dep, view);
  const size_t cols = static_cast<size_t>(dep.cols);
  for (size_t b = 0; b < static_cast<size_t>(batch); ++b) {
    for (size_t c = 0; c < cols; ++c)
      out[b * cols + c] =
          static_cast<i32>(walk_.acc[c * static_cast<size_t>(lanes) + b]);
  }
}

void HybridCore::modeled_walk(Deployment& dep, const LaneView& view) {
  // Activations arrive over the bus into the core buffer once per row
  // (row-stationary: every PE pass reuses the buffered copy) and each PE
  // reads its rows from it; results leave over the bus.
  const i64 rows = view.rows;
  i64 read_bytes = 0;
  for (const auto& pe : dep.sram_pes) read_bytes += pe->tile().rows;
  for (const auto& pe : dep.mram_pes)
    read_bytes += static_cast<i64>(pe->tile().rows.size());
  for (i64 b = 0; b < rows; ++b) {
    bus_.transfer(dep.dense_rows * 8);
    MSH_REQUIRE(buffer_.load(dep.dense_rows));
    buffer_.record_read(read_bytes);
    bus_.transfer(dep.cols * 32);
  }

  // Weight-stationary walk: each tile decodes its cells once and all of
  // the dispatch's lanes stream through it. The shared accumulators merge
  // the tiles' partial sums per (column, lane); which columns a tile
  // serves does not depend on the row, so neither do its merges.
  WalkLane& lane = walk_;
  const size_t cols = static_cast<size_t>(dep.cols);
  const size_t lanes = static_cast<size_t>(view.lanes);
  lane.acc.assign(cols * lanes, 0);
  lane.touched.assign(cols, 0);
  lane.tile_cycles.assign(static_cast<size_t>(dep.pe_count()), 0);
  const TileMatvec& tile_out = lane.pe_out;
  for (i64 i = 0; i < dep.pe_count(); ++i) {
    PeEventCounts events;
    if (dep.is_sram) {
      SramSparsePe& pe = *dep.sram_pes[static_cast<size_t>(i)];
      modeled_sram_matmul(pe.tile(), view, events, lane.walk, lane.pe_out);
      pe.absorb_events(events);
    } else {
      MramSparsePe& pe = *dep.mram_pes[static_cast<size_t>(i)];
      modeled_mram_matmul(pe.tile(), view, events, lane.walk, lane.pe_out);
      pe.absorb_events(events);
    }
    // A tile's cycle cost is structural (M x 8 + tree depth on SRAM,
    // used rows + fill on MRAM), the same for every row, which is what
    // lets the dispatch schedule once for all its rows.
    MSH_ENSURE(events.cycles % rows == 0);
    lane.tile_cycles[static_cast<size_t>(i)] = events.cycles / rows;
    for (size_t k = 0; k < tile_out.output_ids.size(); ++k) {
      const size_t c = static_cast<size_t>(tile_out.output_ids[k]);
      MSH_ENSURE(c < cols);
      if (lane.touched[c]) shared_acc_ops_ += rows;  // cross-PE merges
      lane.touched[c] = 1;
      i64* acc = lane.acc.data() + c * lanes;
      const i64* values = tile_out.values.data() + k * lanes;
      for (size_t q = 0; q < lanes; ++q) acc[q] += values[q];
    }
  }

  // SIMT schedule over the physical PE pool, once: every row costs each
  // tile the same cycles, and the rows stream through the same tiles one
  // after another, so the batch takes rows x the one-row makespan.
  const i64 pe_pool = dep.is_sram ? options_.sram_pe_pool
                                  : options_.topology.mram_pes_per_core();
  const ScheduleResult sched = Scheduler(pe_pool).schedule(lane.tile_cycles);
  last_makespan_ = rows * sched.makespan;
  last_utilization_ = sched.utilization();
}

PeEventCounts HybridCore::pe_events() const {
  PeEventCounts total;
  for (const auto& dep : deployments_) {
    for (const auto& pe : dep.sram_pes) total += pe->events();
    for (const auto& pe : dep.mram_pes) total += pe->events();
  }
  return total;
}

void HybridCore::reset_events() {
  for (auto& dep : deployments_) {
    for (auto& pe : dep.sram_pes) pe->reset_events();
    for (auto& pe : dep.mram_pes) pe->reset_events();
  }
  shared_acc_ops_ = 0;
}

}  // namespace msh
