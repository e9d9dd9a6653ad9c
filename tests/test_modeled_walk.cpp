// Golden tests of the modeled PE walks (kernels/modeled.h) and the core's
// modeled dispatch. The reference is the original, straightforward form
// of both walks, kept below: one row-major activation row per call,
// every segment of every group scanned per phase x bit plane, a fresh
// adder-tree level vector per stage, a std::map row accumulator, and a
// per-row SIMT schedule; its tree and comparators span the tile's rows.
// The walks under test, which take a tile over every lane of a
// tap-major lane view in one call, must reproduce its results and every
// event counter exactly, row by row: on random tiles, on blocks of
// distinct rows, through HybridCore's matvec / matmul / conv_into, and
// after cells are written between two dispatches.
//
// The binary also replaces the global operator new with a counting one,
// which gives a wall-clock-free perf gate: a warmed modeled dispatch
// makes the same number of heap allocations at batch 1 and at batch 32.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdlib>
#include <map>
#include <new>
#include <optional>
#include <set>
#include <vector>

#include "arch/accelerator.h"
#include "common/rng.h"
#include "kernels/direct_conv.h"
#include "kernels/index_unit.h"
#include "kernels/modeled.h"
#include "sparse/nm_mask.h"

namespace {
std::atomic<long> g_allocations{0};
}  // namespace

// Out of line, so the compiler never pairs an inlined free() with the
// allocation of a new-expression it knows as the builtin operator new.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return operator new(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return operator new(size, std::nothrow);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { operator delete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  operator delete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  operator delete(p);
}

namespace msh {
namespace {

// ---------------------------------------------------------------------
// Reference: the original walks and datapath blocks.
// ---------------------------------------------------------------------
namespace ref {

class AdderTree {
 public:
  explicit AdderTree(i64 inputs) : inputs_(inputs) {
    depth_ = 0;
    i64 span = 1;
    while (span < inputs_) {
      span <<= 1;
      ++depth_;
    }
  }
  i64 depth() const { return depth_; }
  i32 reduce(std::span<const i32> values) {
    MSH_REQUIRE(static_cast<i64>(values.size()) <= inputs_);
    std::vector<i64> level(values.begin(), values.end());
    while (level.size() > 1) {
      std::vector<i64> next;
      next.reserve((level.size() + 1) / 2);
      for (size_t i = 0; i + 1 < level.size(); i += 2)
        next.push_back(level[i] + level[i + 1]);
      if (level.size() % 2) next.push_back(level.back());
      level = std::move(next);
    }
    return level.empty() ? 0 : static_cast<i32>(level.front());
  }

 private:
  i64 inputs_;
  i64 depth_;
};

class ComparatorColumn {
 public:
  explicit ComparatorColumn(i64 rows) : rows_(rows) {}
  std::vector<u8> compare(std::span<const u8> stored_indices,
                          std::span<const u8> valid, i32 generated) {
    MSH_REQUIRE(static_cast<i64>(stored_indices.size()) == rows_);
    MSH_REQUIRE(static_cast<i64>(valid.size()) == rows_);
    std::vector<u8> match(static_cast<size_t>(rows_), 0);
    for (i64 r = 0; r < rows_; ++r) {
      match[static_cast<size_t>(r)] =
          valid[static_cast<size_t>(r)] &&
          stored_indices[static_cast<size_t>(r)] == generated;
    }
    return match;
  }

 private:
  i64 rows_;
};

class ShiftAccumulator {
 public:
  explicit ShiftAccumulator(i32 input_bits) : input_bits_(input_bits) {}
  void accumulate(i32 partial_sum, i32 bit) {
    const i64 shifted = static_cast<i64>(partial_sum) << bit;
    acc_ += (bit == input_bits_ - 1) ? -shifted : shifted;
  }
  i64 value() const { return acc_; }

 private:
  i32 input_bits_;
  i64 acc_ = 0;
};

TileMatvec sram_matvec(const SramPeTile& tile,
                       std::span<const i8> activations,
                       PeEventCounts& events) {
  MSH_REQUIRE(!tile.empty());
  MSH_REQUIRE(static_cast<i64>(activations.size()) >= tile.activation_len);

  AdderTree tree(tile.rows);
  ComparatorColumn comparators(tile.rows);

  const i64 rows = tile.rows;
  const i64 groups = tile.groups;
  const i64 seg_rows = tile.segment_rows;
  const i64 segs = tile.segments_per_group();
  const i32 m = tile.cfg.m;
  const i32 n = tile.cfg.n;
  const i32 input_bits = 8;

  std::vector<ShiftAccumulator> seg_acc(
      static_cast<size_t>(tile.total_segments()),
      ShiftAccumulator(input_bits));

  IndexGenerator generator(m);
  std::vector<i32> partials(static_cast<size_t>(seg_rows));

  for (i32 phase = 0; phase < m; ++phase) {
    const i32 gen_index = generator.current();
    std::vector<std::vector<u8>> match(static_cast<size_t>(groups));
    for (i64 g = 0; g < groups; ++g) {
      match[static_cast<size_t>(g)] = comparators.compare(
          std::span<const u8>(tile.indices)
              .subspan(static_cast<size_t>(g * rows),
                       static_cast<size_t>(rows)),
          std::span<const u8>(tile.valid)
              .subspan(static_cast<size_t>(g * rows),
                       static_cast<size_t>(rows)),
          gen_index);
      events.sram_index_compares += 1;
    }

    for (i32 bit = 0; bit < input_bits; ++bit) {
      events.sram_array_cycles += 1;
      events.sram_decoder_cycles += 1;
      events.cycles += 1;

      for (i64 g = 0; g < groups; ++g) {
        bool group_active = false;
        for (i64 s = 0; s < segs; ++s) {
          const i64 seg_idx = tile.segment_index(g, s);
          if (tile.output_id[static_cast<size_t>(seg_idx)] < 0) continue;
          group_active = true;
          const i64 offset =
              tile.segment_offset[static_cast<size_t>(seg_idx)];
          std::fill(partials.begin(), partials.end(), 0);
          for (i64 r = 0; r < seg_rows; ++r) {
            const i64 row = s * seg_rows + r;
            if (!match[static_cast<size_t>(g)][static_cast<size_t>(row)])
              continue;
            const i64 dense_row = (offset + r / n) * m + gen_index;
            MSH_ENSURE(dense_row < static_cast<i64>(activations.size()));
            const i8 act = activations[static_cast<size_t>(dense_row)];
            const bool act_bit = (static_cast<u8>(act) >> bit) & 1;
            if (!act_bit) continue;
            partials[static_cast<size_t>(r)] =
                tile.weights[static_cast<size_t>(g * rows + row)];
            events.buffer_bits_read += 1;
          }
          const i32 seg_sum = tree.reduce(partials);
          seg_acc[static_cast<size_t>(seg_idx)].accumulate(seg_sum, bit);
          events.sram_shift_acc_ops += 1;
        }
        if (group_active) events.sram_adder_tree_ops += 1;
      }
    }
    generator.step();
  }
  events.cycles += tree.depth();

  std::map<i32, i64> merged;
  for (i64 seg_idx = 0; seg_idx < tile.total_segments(); ++seg_idx) {
    const i32 id = tile.output_id[static_cast<size_t>(seg_idx)];
    if (id < 0) continue;
    const i64 value = seg_acc[static_cast<size_t>(seg_idx)].value();
    auto [it, inserted] = merged.emplace(id, value);
    if (!inserted) {
      it->second += value;
      events.sram_row_acc_ops += 1;
    }
  }

  TileMatvec out;
  for (const auto& [id, value] : merged) {
    out.output_ids.push_back(id);
    out.values.push_back(value);
    events.buffer_bits_written += 32;
  }
  return out;
}

TileMatvec mram_matvec(const MramPeTile& tile,
                       std::span<const i8> activations,
                       PeEventCounts& events,
                       MramPipelineStats* pipeline = nullptr) {
  MSH_REQUIRE(!tile.empty());
  MSH_REQUIRE(static_cast<i64>(activations.size()) >= tile.activation_len);

  AdderTree tree(64);

  const i32 m = tile.cfg.m;
  const i32 n = tile.cfg.n;
  std::map<i32, i64> acc;
  std::vector<i32> products;
  products.reserve(static_cast<size_t>(tile.pairs_per_row));

  for (const auto& row : tile.rows) {
    if (row.output_id < 0) continue;
    events.mram_row_reads += 1;
    products.clear();
    for (size_t e = 0; e < row.entries.size(); ++e) {
      const auto& entry = row.entries[e];
      if (!entry.valid) continue;
      const i64 packed_row = row.packed_base + static_cast<i64>(e);
      const i64 dense_row =
          (packed_row / n) * m + static_cast<i64>(entry.index);
      MSH_ENSURE(dense_row < static_cast<i64>(activations.size()));
      events.buffer_bits_read += 8;
      products.push_back(static_cast<i32>(entry.weight) *
                         static_cast<i32>(
                             activations[static_cast<size_t>(dense_row)]));
    }
    events.mram_shift_acc_ops += 1;
    const i32 row_sum = tree.reduce(products);
    events.mram_adder_tree_ops += 1;
    acc[row.output_id] += row_sum;
  }

  MramPipelineStats stats;
  i64 used_rows = 0;
  for (const auto& row : tile.rows) used_rows += (row.output_id >= 0);
  stats.rows = used_rows;
  events.cycles += stats.total_cycles();
  if (pipeline != nullptr) *pipeline = stats;

  TileMatvec out;
  for (const auto& [id, value] : acc) {
    out.output_ids.push_back(id);
    out.values.push_back(value);
    events.buffer_bits_written += 32;
  }
  return out;
}

/// The core-level reference: HybridCore's original per-row modeled
/// dispatch (walk every PE, merge in the shared accumulators, schedule
/// the row's tile cycles, replay bus/buffer traffic) over copies of the
/// deployment's tiles.
struct Core {
  bool is_sram = true;
  i64 cols = 0;
  i64 pe_pool = 16;
  std::vector<SramPeTile> sram;
  std::vector<MramPeTile> mram;

  Bus bus{256};
  ActivationBuffer buffer{1 << 16};
  PeEventCounts events;
  i64 shared_acc_ops = 0;
  i64 last_makespan = 0;
  f64 last_utilization = 0.0;

  struct Row {
    std::vector<i32> result;
    i64 makespan = 0;
    f64 utilization = 0.0;
  };

  Row row(std::span<const i8> activations) {
    Row out;
    std::vector<i64> acc(static_cast<size_t>(cols), 0);
    std::vector<u8> touched(static_cast<size_t>(cols), 0);
    std::vector<i64> tile_cycles;
    const size_t pes = is_sram ? sram.size() : mram.size();
    for (size_t i = 0; i < pes; ++i) {
      PeEventCounts pe_events;
      const TileMatvec y =
          is_sram ? sram_matvec(sram[i], activations, pe_events)
                  : mram_matvec(mram[i], activations, pe_events);
      tile_cycles.push_back(pe_events.cycles);
      events += pe_events;
      for (size_t k = 0; k < y.output_ids.size(); ++k) {
        const size_t c = static_cast<size_t>(y.output_ids[k]);
        if (touched[c]) ++shared_acc_ops;
        acc[c] += y.values[k];
        touched[c] = 1;
      }
    }
    const ScheduleResult sched = Scheduler(pe_pool).schedule(tile_cycles);
    out.makespan = sched.makespan;
    out.utilization = sched.utilization();
    for (i64 c = 0; c < cols; ++c)
      out.result.push_back(static_cast<i32>(acc[static_cast<size_t>(c)]));

    bus.transfer(static_cast<i64>(activations.size()) * 8);
    MSH_REQUIRE(buffer.load(activations));
    for (size_t i = 0; i < pes; ++i) {
      buffer.record_read(is_sram ? sram[i].rows
                                 : static_cast<i64>(mram[i].rows.size()));
    }
    bus.transfer(cols * 32);
    return out;
  }

  /// Batched walk, row by row: the batch's makespan is the sum of its
  /// rows' makespans.
  std::vector<i32> matmul(std::span<const i8> activations, i64 batch) {
    const i64 dense_rows = static_cast<i64>(activations.size()) / batch;
    std::vector<i32> out;
    last_makespan = 0;
    for (i64 b = 0; b < batch; ++b) {
      const Row r = row(activations.subspan(
          static_cast<size_t>(b * dense_rows),
          static_cast<size_t>(dense_rows)));
      out.insert(out.end(), r.result.begin(), r.result.end());
      last_makespan += r.makespan;
      last_utilization = r.utilization;
    }
    return out;
  }
};

}  // namespace ref

// ---------------------------------------------------------------------
// Fixtures.
// ---------------------------------------------------------------------

void expect_events_equal(const PeEventCounts& a, const PeEventCounts& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.buffer_bits_read, b.buffer_bits_read);
  EXPECT_EQ(a.buffer_bits_written, b.buffer_bits_written);
  EXPECT_EQ(a.sram_array_cycles, b.sram_array_cycles);
  EXPECT_EQ(a.sram_decoder_cycles, b.sram_decoder_cycles);
  EXPECT_EQ(a.sram_adder_tree_ops, b.sram_adder_tree_ops);
  EXPECT_EQ(a.sram_shift_acc_ops, b.sram_shift_acc_ops);
  EXPECT_EQ(a.sram_index_compares, b.sram_index_compares);
  EXPECT_EQ(a.sram_row_acc_ops, b.sram_row_acc_ops);
  EXPECT_EQ(a.sram_weight_bits_written, b.sram_weight_bits_written);
  EXPECT_EQ(a.sram_write_row_ops, b.sram_write_row_ops);
  EXPECT_EQ(a.mram_row_reads, b.mram_row_reads);
  EXPECT_EQ(a.mram_shift_acc_ops, b.mram_shift_acc_ops);
  EXPECT_EQ(a.mram_adder_tree_ops, b.mram_adder_tree_ops);
  EXPECT_EQ(a.mram_set_reset_bits, b.mram_set_reset_bits);
  EXPECT_EQ(a.mram_write_row_ops, b.mram_write_row_ops);
}

constexpr NmConfig kPatterns[] = {{1, 4}, {2, 4}, {1, 8}, {2, 8}, {4, 4}};

/// Random INT8 codes with both extremes and zero always present.
std::vector<i8> random_codes(i64 len, Rng& rng) {
  std::vector<i8> act(static_cast<size_t>(len));
  for (auto& v : act) v = static_cast<i8>(rng.uniform_int(-128, 127));
  const i8 pinned[] = {-128, 0, 127};
  for (i64 i = 0; i < 3 && i < len; ++i)
    act[static_cast<size_t>(rng.uniform_int(0, len - 1))] = pinned[i];
  return act;
}

/// `batch` rows of `len` codes in which every row differs: random rows
/// with -128, 0 and 127 pinned, from batch 4 an all -128 and an all 127
/// row, and from batch 2 a last row of zeros.
std::vector<i8> distinct_rows(i64 batch, i64 len, Rng& rng) {
  std::vector<i8> acts;
  for (i64 b = 0; b < batch; ++b) {
    std::vector<i8> row = random_codes(len, rng);
    if (batch >= 4 && b == 1) std::fill(row.begin(), row.end(), i8{-128});
    if (batch >= 4 && b == 2) std::fill(row.begin(), row.end(), i8{127});
    if (batch >= 2 && b == batch - 1) std::fill(row.begin(), row.end(), i8{0});
    acts.insert(acts.end(), row.begin(), row.end());
  }
  return acts;
}

/// Distinct rows of a row-major [rows x len] block.
size_t distinct_row_count(const std::vector<i8>& acts, i64 len) {
  std::set<std::vector<i8>> rows;
  for (size_t at = 0; at < acts.size(); at += static_cast<size_t>(len))
    rows.emplace(acts.begin() + static_cast<std::ptrdiff_t>(at),
                 acts.begin() + static_cast<std::ptrdiff_t>(at) + len);
  return rows.size();
}

/// A 128 x 8 SRAM tile with random cells: unused segments, spill (several
/// segments, in any group, serving one output), padding slots, and
/// indices anywhere in the index field — including the positions a flipped
/// index bit would select.
SramPeTile random_sram_tile(NmConfig cfg, i64 segment_rows, Rng& rng) {
  SramPeTile tile;
  tile.cfg = cfg;
  tile.segment_rows = segment_rows;
  tile.allocate();
  const i64 span = segment_rows / cfg.n;  // dense groups one segment reads
  const i64 dense_groups = 3 * span;
  tile.activation_len = dense_groups * cfg.m;
  for (size_t s = 0; s < tile.output_id.size(); ++s) {
    tile.output_id[s] =
        rng.bernoulli(0.3) ? -1 : static_cast<i32>(rng.uniform_int(0, 5));
    tile.segment_offset[s] = rng.uniform_int(0, dense_groups - span);
  }
  const i64 index_field = i64{1} << cfg.index_bits();
  for (size_t i = 0; i < tile.weights.size(); ++i) {
    tile.weights[i] = static_cast<i8>(rng.uniform_int(-128, 127));
    tile.indices[i] = static_cast<u8>(rng.uniform_int(0, index_field - 1));
    tile.valid[i] = rng.bernoulli(0.8);
  }
  return tile;
}

/// An MRAM tile of random physical rows: unused rows, output ids out of
/// order and repeated, short rows and padding entries.
MramPeTile random_mram_tile(NmConfig cfg, Rng& rng) {
  MramPeTile tile;
  tile.cfg = cfg;
  const i64 rows = rng.uniform_int(1, 24);
  const i64 index_field = i64{1} << cfg.index_bits();
  i64 packed = 0;
  for (i64 r = 0; r < rows; ++r) {
    MramPeTile::PhysicalRow row;
    row.output_id =
        rng.bernoulli(0.2) ? -1 : static_cast<i32>(rng.uniform_int(0, 9));
    row.packed_base = packed;
    const i64 entries = rng.uniform_int(0, tile.pairs_per_row);
    for (i64 e = 0; e < entries; ++e) {
      MramPeTile::RowEntry entry;
      entry.weight = static_cast<i8>(rng.uniform_int(-128, 127));
      entry.index = static_cast<u8>(rng.uniform_int(0, index_field - 1));
      entry.valid = rng.bernoulli(0.85);
      row.entries.push_back(entry);
    }
    packed += entries;
    tile.rows.push_back(std::move(row));
  }
  tile.activation_len = (packed / cfg.n + 1) * cfg.m;
  return tile;
}

void expect_same(const TileMatvec& got, const TileMatvec& want) {
  EXPECT_EQ(got.output_ids, want.output_ids);
  EXPECT_EQ(got.values, want.values);
}

/// The walks under test over `batch` row-major rows, laid out as the
/// core lays out a matmul (lanes_from_rows). Results come back row-major
/// [batch x outputs], the reference's order. One scratch and one output
/// object serve every call: nothing a walk leaves behind may leak into
/// the next.
class RowWalk {
 public:
  TileMatvec sram(const SramPeTile& tile, std::span<const i8> rows,
                  i64 batch, PeEventCounts& events) {
    modeled_sram_matmul(tile, view(rows, batch), events, scratch_, lanes_);
    return row_major(batch);
  }
  TileMatvec mram(const MramPeTile& tile, std::span<const i8> rows,
                  i64 batch, PeEventCounts& events,
                  MramPipelineStats* stats = nullptr) {
    modeled_mram_matmul(tile, view(rows, batch), events, scratch_, lanes_,
                        stats);
    return row_major(batch);
  }

 private:
  LaneView view(std::span<const i8> rows, i64 batch) {
    const i64 taps = static_cast<i64>(rows.size()) / batch;
    EXPECT_EQ(taps * batch, static_cast<i64>(rows.size()));
    lanes_count_ = walk_lanes(batch);
    codes_.resize(static_cast<size_t>(taps * lanes_count_));
    row_off_.resize(static_cast<size_t>(taps));
    tap_bits_.resize(static_cast<size_t>(taps));
    return lanes_from_rows(rows.data(), batch, taps, codes_, row_off_,
                           tap_bits_);
  }
  TileMatvec row_major(i64 batch) const {
    TileMatvec out;
    out.output_ids = lanes_.output_ids;
    const size_t outputs = out.output_ids.size();
    EXPECT_EQ(lanes_.values.size(),
              outputs * static_cast<size_t>(lanes_count_));
    for (i64 b = 0; b < batch; ++b)
      for (size_t k = 0; k < outputs; ++k)
        out.values.push_back(
            lanes_.values[k * static_cast<size_t>(lanes_count_) +
                          static_cast<size_t>(b)]);
    return out;
  }

  ModeledScratch scratch_;
  TileMatvec lanes_;
  i64 lanes_count_ = 0;
  std::vector<i16> codes_;
  std::vector<i64> row_off_;
  std::vector<i64> tap_bits_;
};

// ---------------------------------------------------------------------
// Tile level.
// ---------------------------------------------------------------------

TEST(ModeledWalkGolden, SramTilesMatchReferenceWalk) {
  Rng rng(1701);
  // One walker across every tile, and the MRAM tiles in between.
  RowWalk walk;
  for (const NmConfig cfg : kPatterns) {
    for (const i64 segment_rows : {16, 32, 64, 128}) {
      for (int trial = 0; trial < 4; ++trial) {
        SCOPED_TRACE(testing::Message()
                     << cfg.n << ":" << cfg.m << " seg=" << segment_rows
                     << " trial=" << trial);
        const SramPeTile tile = random_sram_tile(cfg, segment_rows, rng);
        std::vector<i8> act = random_codes(tile.activation_len, rng);
        if (trial == 1) std::fill(act.begin(), act.end(), i8{-128});
        if (trial == 2) std::fill(act.begin(), act.end(), i8{127});

        PeEventCounts want_events;
        const TileMatvec want = ref::sram_matvec(tile, act, want_events);
        PeEventCounts got_events;
        expect_same(walk.sram(tile, act, 1, got_events), want);
        expect_events_equal(got_events, want_events);

        PeEventCounts fresh_events;
        expect_same(modeled_sram_matvec(tile, act, fresh_events), want);
        expect_events_equal(fresh_events, want_events);

        const MramPeTile between = random_mram_tile(cfg, rng);
        const std::vector<i8> between_act =
            random_codes(between.activation_len, rng);
        PeEventCounts ignored;
        walk.mram(between, between_act, 1, ignored);
      }
    }
  }
}

TEST(ModeledWalkGolden, MramTilesMatchReferenceWalk) {
  Rng rng(1702);
  RowWalk walk;
  for (const NmConfig cfg : kPatterns) {
    for (int trial = 0; trial < 12; ++trial) {
      SCOPED_TRACE(testing::Message()
                   << cfg.n << ":" << cfg.m << " trial=" << trial);
      const MramPeTile tile = random_mram_tile(cfg, rng);
      const std::vector<i8> act = random_codes(tile.activation_len, rng);

      PeEventCounts want_events;
      MramPipelineStats want_stats;
      const TileMatvec want =
          ref::mram_matvec(tile, act, want_events, &want_stats);
      PeEventCounts got_events;
      MramPipelineStats got_stats;
      expect_same(walk.mram(tile, act, 1, got_events, &got_stats), want);
      expect_events_equal(got_events, want_events);
      EXPECT_EQ(got_stats.rows, want_stats.rows);
      EXPECT_EQ(got_stats.total_cycles(), want_stats.total_cycles());

      const SramPeTile between = random_sram_tile(cfg, 32, rng);
      const std::vector<i8> between_act =
          random_codes(between.activation_len, rng);
      PeEventCounts ignored;
      walk.sram(between, between_act, 1, ignored);
    }
  }
}

TEST(ModeledWalkGolden, TileMatmulMatchesReferenceRowByRow) {
  // One call walks a tile over every lane of a block: its per-row results
  // and its events, summed over the rows, equal the reference walked row
  // by row. The rows are longer than the tile's activation_len, as a
  // core's dense rows may be; 9 and 33 rows leave round-up lanes.
  Rng rng(1704);
  RowWalk walk;
  for (const NmConfig cfg : kPatterns) {
    for (const i64 batch : {1, 7, 9, 33}) {
      const SramPeTile sram = random_sram_tile(cfg, 32, rng);
      const MramPeTile mram = random_mram_tile(cfg, rng);
      for (const bool is_sram : {true, false}) {
        SCOPED_TRACE(testing::Message()
                     << (is_sram ? "sram " : "mram ") << cfg.n << ":"
                     << cfg.m << " batch=" << batch);
        const i64 stride =
            (is_sram ? sram.activation_len : mram.activation_len) + 3;
        const std::vector<i8> acts = distinct_rows(batch, stride, rng);
        ASSERT_EQ(distinct_row_count(acts, stride),
                  static_cast<size_t>(batch));

        PeEventCounts want_events;
        MramPipelineStats want_stats;
        TileMatvec want;
        for (i64 b = 0; b < batch; ++b) {
          const auto row = std::span<const i8>(acts).subspan(
              static_cast<size_t>(b * stride), static_cast<size_t>(stride));
          const TileMatvec y =
              is_sram ? ref::sram_matvec(sram, row, want_events)
                      : ref::mram_matvec(mram, row, want_events, &want_stats);
          want.output_ids = y.output_ids;
          want.values.insert(want.values.end(), y.values.begin(),
                             y.values.end());
        }
        PeEventCounts got_events;
        MramPipelineStats got_stats;
        if (is_sram) {
          expect_same(walk.sram(sram, acts, batch, got_events), want);
        } else {
          expect_same(walk.mram(mram, acts, batch, got_events, &got_stats),
                      want);
          EXPECT_EQ(got_stats.total_cycles(), want_stats.total_cycles());
        }
        expect_events_equal(got_events, want_events);
      }
    }
  }
}

TEST(ModeledWalkGolden, EveryRowUnusedStillCountsStructure) {
  // A tile serving nothing: no results, no data events, but the array
  // still cycles through its phases and bit planes.
  Rng rng(1703);
  SramPeTile tile = random_sram_tile(kSparse1of4, 16, rng);
  std::fill(tile.output_id.begin(), tile.output_id.end(), -1);
  const std::vector<i8> act = random_codes(tile.activation_len, rng);
  PeEventCounts want_events, got_events;
  const TileMatvec want = ref::sram_matvec(tile, act, want_events);
  const TileMatvec got = modeled_sram_matvec(tile, act, got_events);
  expect_same(got, want);
  expect_events_equal(got_events, want_events);
  EXPECT_TRUE(got.output_ids.empty());
  EXPECT_EQ(got_events.cycles, 4 * 8 + 7);

  MramPeTile mram = random_mram_tile(kSparse1of8, rng);
  for (auto& row : mram.rows) row.output_id = -1;
  const std::vector<i8> mram_act = random_codes(mram.activation_len, rng);
  PeEventCounts want_mram, got_mram;
  expect_same(modeled_mram_matvec(mram, mram_act, got_mram),
              ref::mram_matvec(mram, mram_act, want_mram));
  expect_events_equal(got_mram, want_mram);
}

TEST(ModeledWalkGolden, SramSegmentPastPlaneBoundStaysExact) {
  // Two 512-slot segments whose slots are all valid and carry every
  // index: each gates all 512 slots over its phases, one run of 512, past
  // the 256 slots whose plane sums i16 holds. Every weight is -128 and
  // every code -128 or -1, so bit plane 7 sums to 512 x -128 = -65536 on
  // a lane whose codes are all negative: a plane that never flushed
  // would wrap.
  SramPeTile tile;
  tile.cfg = NmConfig{4, 4};
  tile.rows = 512;
  tile.groups = 2;
  tile.segment_rows = 512;
  tile.allocate();
  tile.activation_len = 512;
  for (size_t i = 0; i < tile.weights.size(); ++i) {
    tile.weights[i] = -128;
    tile.indices[i] = static_cast<u8>(i < 512 ? i % 4 : 3 - i % 4);
    tile.valid[i] = 1;
  }
  tile.output_id = {0, 1};

  // Nine rows, so the second block of lanes is mostly round-up: all
  // -128, all -1, then mixes.
  constexpr i64 kBatch = 9;
  std::vector<i8> rows;
  for (i64 b = 0; b < kBatch; ++b)
    for (i64 r = 0; r < tile.activation_len; ++r)
      rows.push_back(b == 0 ? -128 : b == 1 ? -1 : (r % b ? -1 : -128));

  PeEventCounts want_events;
  TileMatvec want;
  for (i64 b = 0; b < kBatch; ++b) {
    const TileMatvec y = ref::sram_matvec(
        tile,
        std::span<const i8>(rows).subspan(
            static_cast<size_t>(b * tile.activation_len),
            static_cast<size_t>(tile.activation_len)),
        want_events);
    want.output_ids = y.output_ids;
    want.values.insert(want.values.end(), y.values.begin(), y.values.end());
  }
  // Row 0: 512 slots of -128 x -128 per output.
  ASSERT_EQ(want.values[0], 512 * 128 * 128);
  RowWalk walk;
  PeEventCounts got_events;
  expect_same(walk.sram(tile, rows, kBatch, got_events), want);
  expect_events_equal(got_events, want_events);
}

// ---------------------------------------------------------------------
// Core level.
// ---------------------------------------------------------------------

QuantizedNmMatrix random_matrix(i64 k, i64 c, NmConfig cfg, u64 seed) {
  Rng rng(seed);
  Tensor w = Tensor::randn(Shape{k, c}, rng);
  NmMask mask = select_nm_mask(w, cfg, GroupAxis::kRows);
  apply_mask(w, mask);
  return QuantizedNmMatrix::from_packed(NmPackedMatrix::pack(w, cfg));
}

struct Deployed {
  HybridCore core;
  i64 handle = 0;
  ref::Core want;
  Bus deployed_bus;  ///< the core's bus after deployment

  Deployed(const QuantizedNmMatrix& w, bool sram,
           const HybridCoreOptions& options = {})
      : core(options) {
    handle = sram ? core.deploy_sram(w) : core.deploy_mram(w);
    want.is_sram = sram;
    want.cols = w.cols();
    if (sram) {
      want.sram = map_to_sram_pes(w, options.sram_map);
      want.pe_pool = options.sram_pe_pool;
    } else {
      want.mram = map_to_mram_pes(w, options.mram_map);
      want.pe_pool = options.topology.mram_pes_per_core();
    }
    flip_some_indices();
    core.reset_events();
    deployed_bus = core.bus();
  }

  /// The reference's copies of the deployment's valid cells as (weight,
  /// index) pointers, in the order nvm_codes lists them (PE, then slot).
  std::vector<std::pair<i8*, u8*>> reference_cells() {
    std::vector<std::pair<i8*, u8*>> cells;
    for (auto& tile : want.sram)
      for (size_t s = 0; s < tile.valid.size(); ++s)
        if (tile.valid[s])
          cells.emplace_back(&tile.weights[s], &tile.indices[s]);
    for (auto& tile : want.mram)
      for (auto& row : tile.rows)
        for (auto& entry : row.entries)
          if (entry.valid) cells.emplace_back(&entry.weight, &entry.index);
    return cells;
  }

  /// Flips one bit of every fifth stored index, in the core's cells and
  /// in the reference's copy alike.
  void flip_some_indices() {
    HybridCore::NvmCodeView view = core.nvm_codes(handle);
    const auto cells = reference_cells();
    ASSERT_EQ(cells.size(), view.indices.size());
    for (size_t at = 0; at < cells.size(); at += 5) {
      const u8 mask = static_cast<u8>(1u << (at % view.index_bits));
      *view.indices[at] ^= mask;
      *cells[at].second ^= mask;
    }
  }

  /// Core accounting since deployment vs the reference's.
  void expect_accounting() {
    EXPECT_EQ(core.bus().bits_moved() - deployed_bus.bits_moved(),
              want.bus.bits_moved());
    EXPECT_EQ(core.bus().bit_hops() - deployed_bus.bit_hops(),
              want.bus.bit_hops());
    EXPECT_EQ(core.bus().busy_cycles() - deployed_bus.busy_cycles(),
              want.bus.busy_cycles());
    EXPECT_EQ(core.buffer().bytes_loaded(), want.buffer.bytes_loaded());
    EXPECT_EQ(core.buffer().bytes_read(), want.buffer.bytes_read());
    EXPECT_EQ(core.shared_accumulator_ops(), want.shared_acc_ops);
    EXPECT_EQ(core.last_makespan(), want.last_makespan);
    EXPECT_EQ(core.last_utilization(), want.last_utilization);
    expect_events_equal(core.pe_events(), want.events);
  }
};

struct CoreCase {
  const char* name;
  bool sram;
  NmConfig cfg;
  i64 k;
  i64 cols;
  bool merges_across_pes;  ///< some column's groups straddle two tiles
};

// Spill across groups and tiles (1:4, K=1536: three groups per column),
// short segments with unused ones (2:8, 1:8 with few columns), dense M:M,
// and MRAM rows.
constexpr CoreCase kCoreCases[] = {
    {"sram_1of4_spill", true, {1, 4}, 1536, 12, true},
    {"sram_2of8_segments", true, {2, 8}, 96, 40, false},
    {"sram_1of8_few_cols", true, {1, 8}, 256, 3, false},
    {"sram_2of4", true, {2, 4}, 160, 9, false},
    {"sram_4of4_dense", true, {4, 4}, 64, 20, false},
    {"mram_1of8", false, {1, 8}, 2048, 10, false},
    {"mram_2of4", false, {2, 4}, 300, 7, false},
};

TEST(ModeledWalkGolden, CoreMatvecAndMatmulMatchReference) {
  for (const CoreCase& tc : kCoreCases) {
    SCOPED_TRACE(tc.name);
    const QuantizedNmMatrix w = random_matrix(tc.k, tc.cols, tc.cfg, 31 + tc.k);
    Deployed d(w, tc.sram);
    Rng rng(77);

    const std::vector<i8> one = random_codes(w.dense_rows(), rng);
    EXPECT_EQ(d.core.matvec(d.handle, one), d.want.matmul(one, 1));
    d.expect_accounting();

    const std::vector<i8> acts = random_codes(7 * w.dense_rows(), rng);
    EXPECT_EQ(d.core.matmul(d.handle, acts, 7), d.want.matmul(acts, 7));
    d.expect_accounting();

    const std::vector<i8> more = random_codes(9 * w.dense_rows(), rng);
    std::vector<i32> into(static_cast<size_t>(9 * w.cols()));
    d.core.matmul_into(d.handle, more, 9, into);
    EXPECT_EQ(into, d.want.matmul(more, 9));
    d.expect_accounting();
    if (tc.merges_across_pes) {
      EXPECT_GT(d.want.shared_acc_ops, 0);
    }
  }
}

TEST(ModeledWalkGolden, CoreBatchesOfDistinctRowsMatchReference) {
  // The core walks each tile once over the whole batch; every row of it
  // differs, so a row's results or events standing in for another's
  // would show.
  for (const CoreCase& tc : kCoreCases) {
    for (const i64 batch : {1, 7, 9, 33}) {
      SCOPED_TRACE(testing::Message() << tc.name << " batch=" << batch);
      const QuantizedNmMatrix w =
          random_matrix(tc.k, tc.cols, tc.cfg, 41 + tc.k);
      Deployed d(w, tc.sram);
      Rng rng(static_cast<u64>(batch));
      const std::vector<i8> acts = distinct_rows(batch, w.dense_rows(), rng);
      ASSERT_EQ(distinct_row_count(acts, w.dense_rows()),
                static_cast<size_t>(batch));
      std::vector<i32> into(static_cast<size_t>(batch * w.cols()));
      d.core.matmul_into(d.handle, acts, batch, into);
      EXPECT_EQ(into, d.want.matmul(acts, batch));
      d.expect_accounting();
    }
  }
}

/// A conv's input: random integer images and their code planes.
struct ConvInput {
  std::vector<f32> x;  ///< [batch, C, H, W]
  std::vector<i16> planes;
};

/// The conv's im2col code rows, built from the images themselves: one
/// row per valid output position (image, oy, ox order) in the dense-row
/// order (channel, ky, kx), padding taps and the K tail up to
/// `dense_rows` code 0.
std::vector<i8> im2col_rows(const ConvPlanes& g, const ConvInput& in,
                            i64 dense_rows) {
  std::vector<i8> rows;
  for (i64 n = 0; n < g.batch; ++n) {
    for (i64 oy = 0; oy < g.out_h; ++oy) {
      for (i64 ox = 0; ox < g.out_w; ++ox) {
        std::vector<i8> row(static_cast<size_t>(dense_rows), 0);
        for (i64 c = 0; c < g.channels; ++c) {
          for (i64 ky = 0; ky < g.kernel; ++ky) {
            for (i64 kx = 0; kx < g.kernel; ++kx) {
              const i64 iy = oy * g.stride - g.padding + ky;
              const i64 ix = ox * g.stride - g.padding + kx;
              if (iy < 0 || iy >= g.height || ix < 0 || ix >= g.width)
                continue;
              row[static_cast<size_t>((c * g.kernel + ky) * g.kernel + kx)] =
                  static_cast<i8>(in.x[static_cast<size_t>(
                      ((n * g.channels + c) * g.height + iy) * g.width +
                      ix)]);
            }
          }
        }
        rows.insert(rows.end(), row.begin(), row.end());
      }
    }
  }
  return rows;
}

/// conv_into on `d` against the reference's batched walk over the conv's
/// im2col code rows, then the core's accounting.
void expect_conv_matches_reference(Deployed& d, const QuantizedNmMatrix& w,
                                   const ConvPlanes& layout,
                                   const ConvInput& in) {
  std::vector<i32> out(static_cast<size_t>(w.cols() * layout.positions));
  d.core.conv_into(d.handle, in.planes, layout, out);

  const i64 spatial = layout.out_h * layout.out_w;
  const i64 rows = layout.batch * spatial;
  const std::vector<i32> want =
      d.want.matmul(im2col_rows(layout, in, w.dense_rows()), rows);
  for (i64 p = 0; p < rows; ++p) {
    const i64 q = layout.position(p / spatial, p % spatial / layout.out_w,
                                  p % layout.out_w);
    for (i64 c = 0; c < w.cols(); ++c) {
      ASSERT_EQ(out[static_cast<size_t>(c * layout.positions + q)],
                want[static_cast<size_t>(p * w.cols() + c)])
          << "position " << p << " channel " << c;
    }
  }
  d.expect_accounting();
}

/// Random integer images for `layout`, their codes the values
/// themselves, with -128, 127 and 0 pinned in the first, and from two
/// images on a last image of zeros.
ConvInput conv_input(const ConvPlanes& layout, Rng& rng) {
  const QuantParams params{1.0f, -128, 127};
  const i64 per_image = layout.channels * layout.height * layout.width;
  ConvInput in;
  in.x.resize(static_cast<size_t>(layout.batch * per_image));
  for (auto& v : in.x) v = static_cast<f32>(rng.uniform_int(-128, 127));
  in.x[0] = -128.0f;
  in.x[1] = 127.0f;
  in.x[2] = 0.0f;
  if (layout.batch >= 2) std::fill(in.x.end() - per_image, in.x.end(), 0.0f);
  in.planes.resize(static_cast<size_t>(layout.size()));
  quantize_conv_planes(in.x.data(), layout, params, in.planes.data());
  return in;
}

TEST(ModeledWalkGolden, CoreConvMatchesReference) {
  // 5 -> 7 channels, 3x3 stride 2 pad 1 on two 9x7 images: K = 45 rounds
  // up to the pattern's group, so the tail rows read code 0.
  const ConvPlanes layout = ConvPlanes::make(2, 5, 9, 7, 3, 2, 1);
  Rng rng(91);
  const ConvInput in = conv_input(layout, rng);
  for (const bool sram : {true, false}) {
    SCOPED_TRACE(sram ? "sram" : "mram");
    const QuantizedNmMatrix w = random_matrix(48, 7, kSparse1of4, 13);
    Deployed d(w, sram);
    expect_conv_matches_reference(d, w, layout, in);
  }
}

TEST(ModeledWalkGolden, CoreConvBatchesMatchReference) {
  // The same conv at batch 1, 7 and 32 images: one tile walk streams
  // every image's positions.
  for (const i64 images : {1, 7, 32}) {
    const ConvPlanes layout = ConvPlanes::make(images, 5, 9, 7, 3, 2, 1);
    Rng rng(static_cast<u64>(92 + images));
    const ConvInput in = conv_input(layout, rng);
    for (const bool sram : {true, false}) {
      SCOPED_TRACE(testing::Message()
                   << (sram ? "sram" : "mram") << " images=" << images);
      const QuantizedNmMatrix w = random_matrix(48, 7, NmConfig{2, 4}, 14);
      Deployed d(w, sram);
      expect_conv_matches_reference(d, w, layout, in);
    }
  }
}

TEST(ModeledWalkGolden, CorePaddedConvRingLanesStayOutOfBufferReads) {
  // Stride 1 pad 1 (planes one column wider than the output) and stride
  // 2 pad 1 on an even width (a phase plane one column wider): every
  // plane row has a ring lane past out_w, and its taps read real image
  // codes. The walk computes those lanes and drops them; the reference
  // never sees them, so a ring lane counted as a row or in
  // buffer_bits_read shows in the accounting.
  struct Geometry {
    i64 height, width, stride;
  };
  for (const Geometry geo : {Geometry{6, 5, 1}, Geometry{8, 8, 2}}) {
    SCOPED_TRACE(testing::Message() << geo.height << "x" << geo.width
                                    << " stride " << geo.stride);
    const ConvPlanes layout =
        ConvPlanes::make(3, 5, geo.height, geo.width, 3, geo.stride, 1);
    ASSERT_GT(layout.plane_w, layout.out_w);
    Rng rng(static_cast<u64>(95 + geo.stride));
    const ConvInput in = conv_input(layout, rng);
    const QuantizedNmMatrix w = random_matrix(48, 7, kSparse1of4, 15);

    // Some ring lane reads a nonzero code through some tap.
    std::vector<i64> row_off(static_cast<size_t>(w.dense_rows()));
    layout.row_offsets(row_off);
    i64 ring_codes = 0;
    for (i64 q = 0; q < layout.positions; ++q) {
      const i64 in_image = q % (layout.plane_h * layout.plane_w);
      const bool valid = q / (layout.plane_h * layout.plane_w) < layout.batch &&
                         in_image / layout.plane_w < layout.out_h &&
                         in_image % layout.plane_w < layout.out_w;
      if (valid) continue;
      for (const i64 off : row_off)
        ring_codes += in.planes[static_cast<size_t>(off + q)] != 0;
    }
    ASSERT_GT(ring_codes, 0);

    for (const bool sram : {true, false}) {
      SCOPED_TRACE(sram ? "sram" : "mram");
      Deployed d(w, sram);
      expect_conv_matches_reference(d, w, layout, in);
    }
  }
}

TEST(ModeledWalk, TapBitsFromPlanePopcountsMatchDirectCount) {
  // count_tap_bits against popcounting every tap's codes over the valid
  // lanes, the count the SRAM walk's buffer reads model. Every plane
  // code but the zero plane's is random, padding and ring included, so a
  // ring lane or pad code the count took in would show; the K tail
  // (rows past C * k * k) reads the zero plane and counts 0.
  Rng rng(97);
  for (const i64 kernel : {1, 3}) {
    for (const i64 stride : {1, 2}) {
      for (const i64 padding : {0, 1}) {
        for (const i64 batch : {1, 7, 32}) {
          const i64 channels = rng.uniform_int(1, 4);
          const i64 height = rng.uniform_int(kernel + 1, 9);
          const i64 width = rng.uniform_int(kernel + 1, 9);
          SCOPED_TRACE(testing::Message()
                       << "k" << kernel << " s" << stride << " p" << padding
                       << " b" << batch << " " << channels << "x" << height
                       << "x" << width);
          const ConvPlanes g = ConvPlanes::make(batch, channels, height, width,
                                                kernel, stride, padding);
          std::vector<i16> planes(static_cast<size_t>(g.size()), 0);
          for (size_t i = static_cast<size_t>(g.plane_len); i < planes.size();
               ++i) {
            planes[i] = static_cast<i16>(rng.uniform_int(-128, 127));
          }
          const i64 dense_rows = (g.k() + 3) / 4 * 4 + 4;
          std::vector<i64> row_off(static_cast<size_t>(dense_rows));
          g.row_offsets(row_off);
          std::vector<i64> want(row_off.size(), 0);
          for (size_t r = 0; r < row_off.size(); ++r) {
            for (i64 n = 0; n < batch; ++n) {
              for (i64 oy = 0; oy < g.out_h; ++oy) {
                for (i64 ox = 0; ox < g.out_w; ++ox) {
                  const i16 code = planes[static_cast<size_t>(
                      row_off[r] + g.position(n, oy, ox))];
                  want[r] += std::popcount(static_cast<u32>(code & 0xFF));
                }
              }
            }
          }
          std::vector<i16> plane_bits(static_cast<size_t>(g.plane_len));
          std::vector<i16> lane_mask(static_cast<size_t>(g.positions));
          std::vector<i64> got(row_off.size(), -1);
          count_tap_bits(planes.data(), g, row_off, plane_bits, lane_mask,
                         got);
          EXPECT_EQ(got, want);
          for (i64 r = g.k(); r < dense_rows; ++r)
            EXPECT_EQ(got[static_cast<size_t>(r)], 0);
        }
      }
    }
  }
}

TEST(ModeledWalkGolden, CellWrittenBetweenDispatchesIsSeen) {
  // A tile's decode lives for one call. Cells written through nvm_codes
  // between two modeled dispatches on one core must show in the second,
  // exactly as the reference walks the written tiles: decoded cells kept
  // across dispatches would replay the old ones.
  for (const bool sram : {true, false}) {
    SCOPED_TRACE(sram ? "sram" : "mram");
    const QuantizedNmMatrix w = random_matrix(256, 6, kSparse1of4, 57);
    Deployed d(w, sram);
    Rng rng(58);
    const std::vector<i8> acts = distinct_rows(7, w.dense_rows(), rng);
    const std::vector<i32> before = d.core.matmul(d.handle, acts, 7);
    EXPECT_EQ(before, d.want.matmul(acts, 7));

    HybridCore::NvmCodeView view = d.core.nvm_codes(d.handle);
    const auto cells = d.reference_cells();
    ASSERT_EQ(cells.size(), view.weights.size());
    for (size_t at = 0; at < cells.size(); at += 7) {
      const i8 weight = static_cast<i8>(~*view.weights[at]);
      *view.weights[at] = weight;
      *cells[at].first = weight;
      *view.indices[at] ^= 1u;
      *cells[at].second ^= 1u;
    }

    const std::vector<i32> after = d.core.matmul(d.handle, acts, 7);
    EXPECT_EQ(after, d.want.matmul(acts, 7));
    EXPECT_NE(after, before);
    d.expect_accounting();
  }
}

/// conv_into on `d`'s core, the accumulators at layout's valid
/// positions in (image, oy, ox, channel) order.
std::vector<i32> valid_outputs(Deployed& d, i64 cols, const ConvPlanes& layout,
                               const std::vector<i16>& planes) {
  std::vector<i32> out(static_cast<size_t>(cols * layout.positions));
  d.core.conv_into(d.handle, planes, layout, out);
  std::vector<i32> valid;
  for (i64 n = 0; n < layout.batch; ++n)
    for (i64 oy = 0; oy < layout.out_h; ++oy)
      for (i64 ox = 0; ox < layout.out_w; ++ox)
        for (i64 c = 0; c < cols; ++c)
          valid.push_back(out[static_cast<size_t>(
              c * layout.positions + layout.position(n, oy, ox))]);
  return valid;
}

TEST(ModeledWalkGolden, SiblingViewMatchesOwnPlanes) {
  // A 1x1, padding-0 conv reading a 3x3, padding-1 sibling's planes
  // (ConvPlanes::sibling_view) against the same conv reading its own:
  // stride 1 reads the one phase at the centre tap's shift, stride 2
  // phase (1, 1) at shift 0. Batch 1 / 7 / 32, SRAM with faults in its
  // cells (flipped index bits, and every seventh weight inverted) and
  // MRAM. The view walks the sibling's larger lane grid, whose ring
  // lanes read real codes; only its valid lanes are rows. Modeled: the
  // accumulators, every PeEventCounts field, the bus and buffer bits,
  // last_makespan() and the reference walk's accounting. Raw: the
  // accumulators at every valid position.
  const QuantParams params{1.0f, -128, 127};
  for (const i64 stride : {1, 2}) {
    for (const i64 batch : {1, 7, 32}) {
      const ConvPlanes host =
          ConvPlanes::make(batch, 5, 12, 12, 3, stride, 1);
      const ConvPlanes own = ConvPlanes::make(batch, 5, 12, 12, 1, stride, 0);
      const std::optional<ConvPlanes> view =
          ConvPlanes::sibling_view(host, own);
      ASSERT_TRUE(view.has_value());
      EXPECT_GT(view->plane_w, own.plane_w);
      Rng rng(static_cast<u64>(100 * stride + batch));
      const ConvInput mine_in = conv_input(own, rng);
      ConvInput host_in{mine_in.x, std::vector<i16>(
                                       static_cast<size_t>(host.size()))};
      quantize_conv_planes(host_in.x.data(), host, params,
                           host_in.planes.data());
      const QuantizedNmMatrix w = random_matrix(8, 7, kSparse1of4, 61);
      for (const bool sram : {true, false}) {
        SCOPED_TRACE(testing::Message() << (sram ? "sram" : "mram") << " s"
                                        << stride << " b" << batch);
        Deployed mine(w, sram), shared(w, sram);
        if (sram) {
          for (Deployed* d : {&mine, &shared}) {
            HybridCore::NvmCodeView cells = d->core.nvm_codes(d->handle);
            const auto copies = d->reference_cells();
            for (size_t at = 0; at < copies.size(); at += 7) {
              const i8 weight = static_cast<i8>(~*cells.weights[at]);
              *cells.weights[at] = weight;
              *copies[at].first = weight;
            }
          }
        }
        expect_conv_matches_reference(mine, w, own, mine_in);
        expect_conv_matches_reference(shared, w, *view, host_in);
        expect_events_equal(shared.core.pe_events(), mine.core.pe_events());
        EXPECT_EQ(shared.core.bus().bits_moved(), mine.core.bus().bits_moved());
        EXPECT_EQ(shared.core.buffer().bytes_read(),
                  mine.core.buffer().bytes_read());
        EXPECT_EQ(shared.core.last_makespan(), mine.core.last_makespan());
        EXPECT_EQ(valid_outputs(shared, w.cols(), *view, host_in.planes),
                  valid_outputs(mine, w.cols(), own, mine_in.planes));

        mine.core.set_backend(KernelBackend::kRaw);
        shared.core.set_backend(KernelBackend::kRaw);
        EXPECT_EQ(valid_outputs(shared, w.cols(), *view, host_in.planes),
                  valid_outputs(mine, w.cols(), own, mine_in.planes));
      }
    }
  }
}

TEST(ModeledWalk, SiblingViewFitsOnlyMatchingGeometry) {
  // The view exists for a 1x1, padding-0 conv with the sibling's input,
  // stride and output grid, and nowhere else.
  const ConvPlanes host = ConvPlanes::make(2, 4, 12, 12, 3, 2, 1);
  EXPECT_TRUE(ConvPlanes::sibling_view(
                  host, ConvPlanes::make(2, 4, 12, 12, 1, 2, 0))
                  .has_value());
  for (const ConvPlanes& other :
       {ConvPlanes::make(2, 4, 12, 12, 1, 1, 0),    // stride
        ConvPlanes::make(2, 4, 12, 12, 3, 2, 1),    // not 1x1
        ConvPlanes::make(2, 4, 12, 12, 1, 2, 1),    // padded
        ConvPlanes::make(1, 4, 12, 12, 1, 2, 0),    // batch
        ConvPlanes::make(2, 3, 12, 12, 1, 2, 0),    // channels
        ConvPlanes::make(2, 4, 11, 12, 1, 2, 0)}) {  // input size
    EXPECT_FALSE(ConvPlanes::sibling_view(host, other).has_value());
  }
  // A 3x3 stride-2 conv without padding has an output grid one smaller.
  EXPECT_FALSE(ConvPlanes::sibling_view(
                   ConvPlanes::make(2, 4, 12, 12, 3, 2, 0),
                   ConvPlanes::make(2, 4, 12, 12, 1, 2, 0))
                   .has_value());
}

TEST(ModeledWalk, SramTileHeightsServeOnBothBackends) {
  // The walk sizes its adder tree and comparators from the tile: 64- and
  // 256-row tiles run on the modeled backend, match the raw backend and
  // the quantized reference, and take M x 8 cycles plus the tree depth.
  for (const i64 rows : {64, 128, 256}) {
    for (const NmConfig cfg : {kSparse1of4, kSparse1of8}) {
      SCOPED_TRACE(testing::Message() << "rows=" << rows << " 1:" << cfg.m);
      HybridCoreOptions options;
      options.sram_map.rows = rows;
      HybridCore core(options);
      const QuantizedNmMatrix w = random_matrix(512, 24, cfg, 5 + rows);
      const i64 handle = core.deploy_sram(w);
      Rng rng(rows);
      const std::vector<i8> act = random_codes(w.dense_rows(), rng);

      core.reset_events();
      const std::vector<i32> modeled = core.matvec(handle, act);
      EXPECT_EQ(modeled, w.reference_matvec(act));
      i64 depth = 0;
      while ((i64{1} << depth) < rows) ++depth;
      EXPECT_EQ(core.last_makespan(), cfg.m * 8 + depth);
      EXPECT_EQ(core.pe_events().cycles % (cfg.m * 8 + depth), 0);

      core.set_backend(KernelBackend::kRaw);
      EXPECT_EQ(core.matvec(handle, act), modeled);
    }
  }
}

// ---------------------------------------------------------------------
// Allocation gate.
// ---------------------------------------------------------------------

TEST(ModeledWalk, WarmedDispatchAllocationsDoNotGrowWithBatch) {
  // Every modeled matmul_into keeps its working storage in the core, so
  // once warmed a dispatch allocates a fixed number of times (the
  // dispatch's schedule), whatever its batch.
  HybridCore core;
  const i64 sram = core.deploy_sram(random_matrix(1024, 12, kSparse1of4, 3));
  const i64 mram = core.deploy_mram(random_matrix(2048, 10, kSparse1of8, 4));
  Rng rng(5);
  for (const i64 handle : {sram, mram}) {
    const i64 k = handle == sram ? 1024 : 2048;
    const i64 cols = handle == sram ? 12 : 10;
    const std::vector<i8> acts = random_codes(32 * k, rng);
    std::vector<i32> out(static_cast<size_t>(32 * cols));
    auto allocations = [&](i64 batch) {
      const std::span<const i8> in(acts.data(), static_cast<size_t>(batch * k));
      const std::span<i32> y(out.data(), static_cast<size_t>(batch * cols));
      const long before = g_allocations.load();
      core.matmul_into(handle, in, batch, y);
      return g_allocations.load() - before;
    };
    allocations(32);  // warm: scratch reaches its high-water mark
    allocations(1);
    const long at_1 = allocations(1);
    const long at_32 = allocations(32);
    EXPECT_EQ(at_1, at_32) << (handle == sram ? "sram" : "mram");
  }
}

}  // namespace
}  // namespace msh
