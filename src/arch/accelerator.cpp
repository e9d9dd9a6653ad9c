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

HybridCore::RowCompute HybridCore::compute_row(
    const Deployment& dep, std::span<const i8> activations) const {
  RowCompute row;
  std::vector<i64> acc(static_cast<size_t>(dep.cols), 0);
  std::vector<u8> touched(static_cast<size_t>(dep.cols), 0);
  row.pe_events.resize(static_cast<size_t>(dep.pe_count()));
  row.tile_cycles.reserve(row.pe_events.size());

  auto merge = [&](const std::vector<i32>& ids,
                   const std::vector<i64>& values) {
    for (size_t i = 0; i < ids.size(); ++i) {
      const size_t c = static_cast<size_t>(ids[i]);
      MSH_ENSURE(c < acc.size());
      if (touched[c]) ++row.shared_acc_ops;  // cross-PE partial-sum merge
      acc[c] += values[i];
      touched[c] = 1;
    }
  };

  if (dep.is_sram) {
    for (size_t i = 0; i < dep.sram_pes.size(); ++i) {
      const SramPeOutput out =
          dep.sram_pes[i]->matvec_compute(activations, row.pe_events[i]);
      row.tile_cycles.push_back(row.pe_events[i].cycles);
      merge(out.output_ids, out.values);
    }
  } else {
    for (size_t i = 0; i < dep.mram_pes.size(); ++i) {
      const MramPeOutput out =
          dep.mram_pes[i]->matvec_compute(activations, row.pe_events[i]);
      row.tile_cycles.push_back(row.pe_events[i].cycles);
      merge(out.output_ids, out.values);
    }
  }

  // SIMT schedule over the physical PE pool (one pool per tile lane).
  const i64 pe_pool = dep.is_sram
                          ? options_.sram_pe_pool
                          : options_.topology.mram_pes_per_core();
  const ScheduleResult sched = Scheduler(pe_pool).schedule(row.tile_cycles);
  row.makespan = sched.makespan;
  row.utilization = sched.utilization();

  row.result.resize(static_cast<size_t>(dep.cols));
  for (size_t c = 0; c < row.result.size(); ++c)
    row.result[c] = static_cast<i32>(acc[c]);
  return row;
}

void HybridCore::absorb_row(Deployment& dep, std::span<const i8> activations,
                            const RowCompute& row) {
  // Activations arrive over the bus into the core buffer once
  // (row-stationary: every PE pass reuses the buffered copy).
  bus_.transfer(static_cast<i64>(activations.size()) * 8);
  MSH_REQUIRE(buffer_.load(activations));
  if (dep.is_sram) {
    for (size_t i = 0; i < dep.sram_pes.size(); ++i) {
      dep.sram_pes[i]->absorb_events(row.pe_events[i]);
      buffer_.record_read(dep.sram_pes[i]->tile().rows);
    }
  } else {
    for (size_t i = 0; i < dep.mram_pes.size(); ++i) {
      dep.mram_pes[i]->absorb_events(row.pe_events[i]);
      buffer_.record_read(
          static_cast<i64>(dep.mram_pes[i]->tile().rows.size()));
    }
  }
  shared_acc_ops_ += row.shared_acc_ops;
  // Results leave over the bus.
  bus_.transfer(dep.cols * 32);
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
  raw_csc_matmul(resident(dep), activations, batch, out, arena_, intra_pool_);
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
  Deployment& dep = checked_deployment(handle, activations, 1);
  if (options_.backend == KernelBackend::kRaw) {
    std::vector<i32> out(static_cast<size_t>(dep.cols));
    raw_matmul(dep, activations, 1, out);
    return out;
  }

  RowCompute row = compute_row(dep, activations);
  absorb_row(dep, activations, row);
  last_makespan_ = row.makespan;
  last_utilization_ = row.utilization;
  return std::move(row.result);
}

std::vector<i32> HybridCore::matmul(i64 handle,
                                    std::span<const i8> activations,
                                    i64 batch) {
  Deployment& dep = checked_deployment(handle, activations, batch);
  if (options_.backend == KernelBackend::kRaw) {
    std::vector<i32> out(static_cast<size_t>(batch * dep.cols));
    raw_matmul(dep, activations, batch, out);
    return out;
  }
  return modeled_matmul(handle, dep, activations, batch);
}

void HybridCore::matmul_into(i64 handle, std::span<const i8> activations,
                             i64 batch, std::span<i32> out) {
  Deployment& dep = checked_deployment(handle, activations, batch);
  MSH_REQUIRE(static_cast<i64>(out.size()) == batch * dep.cols);
  if (options_.backend == KernelBackend::kRaw) {
    raw_matmul(dep, activations, batch, out);
    return;
  }
  const std::vector<i32> y = modeled_matmul(handle, dep, activations, batch);
  std::copy(y.begin(), y.end(), out.begin());
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
    direct_conv(resident(dep), planes.data(), layout, out.data(), arena_,
                intra_pool_);
    last_makespan_ = 0;
    last_utilization_ = 0.0;
    return;
  }

  const i64 spatial = layout.out_h * layout.out_w;
  const i64 rows = layout.batch * spatial;
  std::span<i8> codes = arena_.alloc<i8>(rows * dep.dense_rows);
  gather_code_rows(planes.data(), layout, dep.dense_rows, codes.data(), arena_,
                   intra_pool_);
  const std::vector<i32> y = modeled_matmul(handle, dep, codes, rows);
  for (i64 p = 0; p < rows; ++p) {
    const i64 q = layout.position(p / spatial, p % spatial / layout.out_w,
                                  p % layout.out_w);
    for (i64 c = 0; c < dep.cols; ++c) {
      out[static_cast<size_t>(c * layout.positions + q)] =
          y[static_cast<size_t>(p * dep.cols + c)];
    }
  }
}

std::vector<i32> HybridCore::modeled_matmul(i64 handle, Deployment& dep,
                                            std::span<const i8> activations,
                                            i64 batch) {
  ThreadPool* pool = intra_pool_;
  if (pool == nullptr || pool->size() <= 1 || batch <= 1) {
    std::vector<i32> out;
    out.reserve(static_cast<size_t>(batch * dep.cols));
    i64 makespan = 0;
    for (i64 b = 0; b < batch; ++b) {
      const auto row = activations.subspan(
          static_cast<size_t>(b * dep.dense_rows),
          static_cast<size_t>(dep.dense_rows));
      const auto y = matvec(handle, row);
      makespan += last_makespan_;
      out.insert(out.end(), y.begin(), y.end());
    }
    last_makespan_ = makespan;
    return out;
  }

  // Intra-batch parallel path: contiguous row lanes, each modeling (and
  // running on) a clone of the deployment's tiles. Rows are independent
  // (private accumulators, fixed output offsets, lane-local event
  // counters), so the outputs are bit-identical to the sequential walk.
  std::vector<RowCompute> rows(static_cast<size_t>(batch));
  std::vector<i32> out(static_cast<size_t>(batch * dep.cols));
  pool->parallel_for(batch, [&](i64 begin, i64 end) {
    for (i64 b = begin; b < end; ++b) {
      const auto acts = activations.subspan(
          static_cast<size_t>(b * dep.dense_rows),
          static_cast<size_t>(dep.dense_rows));
      RowCompute row = compute_row(dep, acts);
      std::copy(row.result.begin(), row.result.end(),
                out.begin() + static_cast<size_t>(b * dep.cols));
      rows[static_cast<size_t>(b)] = std::move(row);
    }
  });

  // Deterministic accounting replay, in row order: the final bus, buffer
  // and PE event state is exactly the sequential path's.
  for (i64 b = 0; b < batch; ++b) {
    const auto acts = activations.subspan(
        static_cast<size_t>(b * dep.dense_rows),
        static_cast<size_t>(dep.dense_rows));
    absorb_row(dep, acts, rows[static_cast<size_t>(b)]);
  }
  last_utilization_ = rows.back().utilization;

  // Modeled time: lanes run concurrently on their tile clones, so the
  // batch finishes when the busiest lane does. Lane boundaries are the
  // same contiguous chunks parallel_for dispatched.
  const i64 lanes = pool->shards(batch);
  const i64 per_lane = (batch + lanes - 1) / lanes;
  i64 makespan = 0;
  for (i64 lane = 0; lane < lanes; ++lane) {
    i64 lane_cycles = 0;
    const i64 end = std::min(batch, (lane + 1) * per_lane);
    for (i64 b = lane * per_lane; b < end; ++b)
      lane_cycles += rows[static_cast<size_t>(b)].makespan;
    makespan = std::max(makespan, lane_cycles);
  }
  last_makespan_ = makespan;
  return out;
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
