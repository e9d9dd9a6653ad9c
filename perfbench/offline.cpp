// Offline executor legs (no runtime) and the per-layer probe.
//
// The probe deploys its own copy of every executor layer from the
// executor's exported image and walks the executor's forward structure
// (stem -> stages + Rep modules with activation connectors -> pooled
// classifier) with a span around each PimConv/PimLinear::forward. A
// second walk replays each layer's steps through the public tensor,
// kernels and arch functions to split the layer into im2col, transpose,
// quantize, HybridCore::matmul (and, on raw, the flat-CSC build and
// multiply it performs), and dequantize.
#include <algorithm>
#include <cstring>
#include <map>
#include <stdexcept>

#include "bench.h"
#include "kernels/flat_csc.h"
#include "kernels/quant_kernels.h"
#include "mapping/csc_mapper.h"
#include "sim/energy_model.h"

namespace perfbench {
namespace {

constexpr i64 kOfflineImages = 32;

msh::PeEventCounts minus(msh::PeEventCounts a, const msh::PeEventCounts& b) {
  a.cycles -= b.cycles;
  a.buffer_bits_read -= b.buffer_bits_read;
  a.buffer_bits_written -= b.buffer_bits_written;
  a.sram_array_cycles -= b.sram_array_cycles;
  a.sram_decoder_cycles -= b.sram_decoder_cycles;
  a.sram_adder_tree_ops -= b.sram_adder_tree_ops;
  a.sram_shift_acc_ops -= b.sram_shift_acc_ops;
  a.sram_index_compares -= b.sram_index_compares;
  a.sram_row_acc_ops -= b.sram_row_acc_ops;
  a.sram_weight_bits_written -= b.sram_weight_bits_written;
  a.sram_write_row_ops -= b.sram_write_row_ops;
  a.mram_row_reads -= b.mram_row_reads;
  a.mram_shift_acc_ops -= b.mram_shift_acc_ops;
  a.mram_adder_tree_ops -= b.mram_adder_tree_ops;
  a.mram_set_reset_bits -= b.mram_set_reset_bits;
  a.mram_write_row_ops -= b.mram_write_row_ops;
  return a;
}

// One executor forward, timed and checked row by row against the
// reference logits of pool images [first, first + batch).
void checked_forward(Fixture& fx, msh::PimRepNetExecutor& exec,
                     const msh::Tensor& batch, i64 first,
                     const std::string& span, Tracer* tracer,
                     std::vector<f64>& ms, Tally& tally) {
  f64 us = 0.0;
  const msh::Tensor out =
      timed(tracer, span, -1, us, [&] { return exec.forward(batch); });
  ms.push_back(us / 1e3);
  for (i64 r = 0; r < batch.shape()[0]; ++r) {
    tally.check(same_row(out, r, fx.reference, first + r),
                span + " output row " + std::to_string(r) +
                    " differs from the reference");
  }
}

}  // namespace

void run_offline(Fixture& fx, i64 min_rounds, f64 seconds, Tracer* tracer,
                 Tally& tally, OfflineSamples& s) {
  std::vector<msh::Tensor> singles;
  for (i64 i = 0; i < kOfflineImages; ++i) singles.push_back(fx.images(i, 1));
  const msh::Tensor all = fx.images(0, kOfflineImages);
  std::vector<msh::Tensor> eights;
  for (i64 c = 0; c < kOfflineImages / 8; ++c)
    eights.push_back(fx.images(c * 8, 8));

  const f64 start = now_us();
  for (i64 round = 0;
       round < min_rounds || now_us() - start < seconds * 1e6; ++round) {
    OfflineRound& r = s.rounds.emplace_back();
    // Raw legs: enough calls per round that their medians settle next to
    // the slower modeled leg, and batch 1's p75 has 32 calls beyond it.
    for (i64 pass = 0; pass < 4; ++pass) {
      for (i64 i = 0; i < kOfflineImages; ++i) {
        checked_forward(fx, *fx.raw, singles[static_cast<size_t>(i)], i,
                        "deploy.forward.raw_b1", tracer, r.raw_b1_ms, tally);
      }
    }
    for (i64 call = 0; call < 8; ++call) {
      checked_forward(fx, *fx.raw, all, 0, "deploy.forward.raw_b32", tracer,
                      r.raw_b32_ms, tally);
    }
    // Modeled leg: one whole pass, so per-image counts are exact.
    const msh::HybridCore& core = fx.modeled->core();
    const msh::PeEventCounts events_before = core.pe_events();
    const i64 bus_before = core.bus().bits_moved();
    const i64 buffer_before = core.buffer().bytes_read();
    for (i64 c = 0; c < kOfflineImages / 8; ++c) {
      checked_forward(fx, *fx.modeled, eights[static_cast<size_t>(c)], c * 8,
                      "deploy.forward.modeled_b8", tracer, r.modeled_b8_ms,
                      tally);
    }
    const msh::PeEventCounts events = minus(core.pe_events(), events_before);
    const i64 bus_bits = core.bus().bits_moved() - bus_before;
    const i64 buffer_bytes = core.buffer().bytes_read() - buffer_before;
    if (s.passes++ == 0) {
      s.pass_events = events;
      s.pass_bus_bits = bus_bits;
      s.pass_buffer_bytes_read = buffer_bytes;
    } else {
      tally.check(std::memcmp(&events, &s.pass_events, sizeof(events)) == 0 &&
                      bus_bits == s.pass_bus_bits &&
                      buffer_bytes == s.pass_buffer_bytes_read,
                  "modeled accounting repeats exactly pass after pass");
    }
  }
}

const OfflineRound& fastest_round(const OfflineSamples& s,
                                  std::vector<f64> OfflineRound::*leg) {
  if (s.rounds.empty()) throw std::runtime_error("no offline rounds ran");
  return *std::min_element(s.rounds.begin(), s.rounds.end(),
                           [&](const OfflineRound& a, const OfflineRound& b) {
                             return median(a.*leg) < median(b.*leg);
                           });
}

f64 fastest_median(const OfflineSamples& s,
                   std::vector<f64> OfflineRound::*leg) {
  return median(fastest_round(s, leg).*leg);
}

void report_offline(const OfflineSamples& s, Metrics& m) {
  const f64 images = static_cast<f64>(kOfflineImages);
  const msh::EnergyReport energy = msh::EnergyModel().price(s.pass_events);
  m.set("raw_forward_ms_per_img_b1",
        fastest_median(s, &OfflineRound::raw_b1_ms), "ms");
  m.set("raw_forward_ms_per_img_b32",
        fastest_median(s, &OfflineRound::raw_b32_ms) / images, "ms");
  m.set("modeled_forward_ms_per_img",
        fastest_median(s, &OfflineRound::modeled_b8_ms) / 8.0, "ms");
  m.set("modeled_pe_cycles_per_img",
        static_cast<f64>(s.pass_events.cycles) / images, "modeled_cycles");
  m.set("modeled_energy_nj_per_img", energy.total().as_nj() / images,
        "modeled_nJ");
}

void report_offline_layers(const OfflineSamples& s, Metrics& m) {
  const f64 images = static_cast<f64>(kOfflineImages);
  const msh::EnergyReport energy = msh::EnergyModel().price(s.pass_events);
  m.set("deploy.forward_ms.raw_b1",
        fastest_median(s, &OfflineRound::raw_b1_ms), "ms");
  m.set("deploy.forward_ms.raw_b32",
        fastest_median(s, &OfflineRound::raw_b32_ms), "ms");
  m.set("deploy.forward_ms.modeled_b8",
        fastest_median(s, &OfflineRound::modeled_b8_ms), "ms");
  m.set("pim.sram_array_cycles_per_img",
        static_cast<f64>(s.pass_events.sram_array_cycles) / images,
        "modeled_cycles");
  m.set("pim.mram_row_reads_per_img",
        static_cast<f64>(s.pass_events.mram_row_reads) / images,
        "modeled_reads");
  m.set("arch.bus_bits_per_img", static_cast<f64>(s.pass_bus_bits) / images,
        "modeled_bits");
  m.set("arch.buffer_bits_read_per_img",
        static_cast<f64>(s.pass_buffer_bytes_read) * 8.0 / images,
        "modeled_bits");
  m.set("sim.energy_sram_nj_per_img", energy.sram.as_nj() / images,
        "modeled_nJ");
  m.set("sim.energy_mram_nj_per_img", energy.mram.as_nj() / images,
        "modeled_nJ");
  m.set("sim.energy_buffer_nj_per_img", energy.buffer.as_nj() / images,
        "modeled_nJ");
}

// ---- layer probe ---------------------------------------------------------

namespace {

// Per-forward step totals, summed over the 11 layers.
struct StepTimes {
  f64 im2col = 0, transpose = 0, quantize = 0, dequantize = 0;
  f64 flat_build = 0, csc_matmul = 0, arch_matmul = 0;
};

struct ProbeLayer {
  std::string name;
  size_t index = 0;  ///< deploy order
  const msh::Conv2dGeometry* geom = nullptr;  ///< null for the classifier
  std::unique_ptr<msh::PimConv> conv;
  std::unique_ptr<msh::PimLinear> linear;
  const msh::QuantizedNmMatrix* matrix = nullptr;
  const f32* bias = nullptr;  ///< classifier bias (convs add theirs later)
  std::vector<msh::SramPeTile> sram_tiles;
  std::vector<msh::MramPeTile> mram_tiles;

  const msh::PimMatmulLayer& matmul() const {
    return conv ? conv->matmul_layer() : linear->matmul_layer();
  }
};

// The probe's copies of the periphery; they only feed each layer its
// input (the executor's own forward times the periphery).
msh::Tensor relu(msh::Tensor x) {
  for (i64 i = 0; i < x.numel(); ++i) x[i] = std::max(x[i], 0.0f);
  return x;
}

msh::Tensor avg_pool(const msh::Tensor& x, i64 kernel, i64 stride) {
  const i64 n = x.shape()[0], c = x.shape()[1], h = x.shape()[2],
            w = x.shape()[3];
  const i64 ho = (h - kernel) / stride + 1, wo = (w - kernel) / stride + 1;
  msh::Tensor y(msh::Shape{n, c, ho, wo});
  const f32 inv = 1.0f / static_cast<f32>(kernel * kernel);
  i64 out = 0;
  for (i64 img = 0; img < n; ++img) {
    for (i64 ch = 0; ch < c; ++ch) {
      const i64 plane = (img * c + ch) * h * w;
      for (i64 oy = 0; oy < ho; ++oy) {
        for (i64 ox = 0; ox < wo; ++ox, ++out) {
          f32 acc = 0.0f;
          for (i64 ky = 0; ky < kernel; ++ky)
            for (i64 kx = 0; kx < kernel; ++kx)
              acc += x[plane + (oy * stride + ky) * w + (ox * stride + kx)];
          y[out] = acc * inv;
        }
      }
    }
  }
  return y;
}

class ProbeNet {
 public:
  ProbeNet(msh::RepNetModel& model, const msh::PimRepNetExecutor& source,
           msh::KernelBackend backend)
      : model_(model),
        image_(source.export_image()),
        core_(core_options(backend)),
        raw_(backend == msh::KernelBackend::kRaw) {
    msh::Backbone& bb = model_.backbone();
    auto add_conv = [&](const std::string& name, msh::Conv2d& conv,
                        msh::PeKind target) {
      ProbeLayer& l = add(name, target);
      l.geom = &conv.geometry();
      l.conv = std::make_unique<msh::PimConv>(core_, conv, msh::kSparse1of4,
                                              target, scale(source, &conv),
                                              l.matrix);
      by_conv_[&conv] = &l;
    };
    for (i64 i = 0; i < bb.stem().size(); ++i) {
      if (auto* conv = dynamic_cast<msh::Conv2d*>(&bb.stem().layer(i)))
        add_conv("stem." + std::to_string(i), *conv, msh::PeKind::kMram);
    }
    for (i64 s = 0; s < bb.num_stages(); ++s) {
      for (i64 b = 0; b < bb.stage(s).size(); ++b) {
        auto& block = dynamic_cast<msh::ResidualBlock&>(bb.stage(s).layer(b));
        const std::string prefix =
            "stage" + std::to_string(s) + ".block" + std::to_string(b);
        add_conv(prefix + ".conv1", block.conv1(), msh::PeKind::kMram);
        add_conv(prefix + ".conv2", block.conv2(), msh::PeKind::kMram);
        if (block.has_projection())
          add_conv(prefix + ".proj", block.projection(), msh::PeKind::kMram);
      }
    }
    for (i64 m = 0; m < model_.num_rep_modules(); ++m) {
      const std::string prefix = "rep" + std::to_string(m);
      add_conv(prefix + ".reduce", model_.rep_module(m).reduce(),
               msh::PeKind::kSram);
      add_conv(prefix + ".expand", model_.rep_module(m).expand(),
               msh::PeKind::kSram);
    }
    msh::Linear& classifier = model_.classifier();
    ProbeLayer& l = add("classifier", msh::PeKind::kSram);
    l.linear = std::make_unique<msh::PimLinear>(
        core_, classifier, msh::kSparse1of4, msh::PeKind::kSram,
        scale(source, &classifier), l.matrix);
    l.bias = classifier.bias().value.data();
  }

  std::vector<std::string> names() const {
    std::vector<std::string> out;
    for (const auto& l : layers_) out.push_back(l->name);
    return out;
  }

  /// The executor's forward. With `steps` null each layer call is timed
  /// into `layer_us` (and traced); otherwise each layer's steps are
  /// replayed into `steps` before the layer runs.
  msh::Tensor forward(const msh::Tensor& images, std::vector<f64>& layer_us,
                      StepTimes* steps, Tracer* tracer, i64 parent) {
    layer_us.assign(layers_.size(), 0.0);
    layer_us_ = &layer_us;
    steps_ = steps;
    tracer_ = tracer;
    parent_ = parent;
    msh::Backbone& bb = model_.backbone();
    msh::Tensor a = sequential(bb.stem(), images);
    msh::Tensor r;
    for (i64 s = 0; s < bb.num_stages(); ++s) {
      msh::Tensor u = a;
      if (!r.empty()) u += r;
      msh::Tensor next = u;
      for (i64 b = 0; b < bb.stage(s).size(); ++b)
        next = residual(dynamic_cast<msh::ResidualBlock&>(bb.stage(s).layer(b)),
                        next);
      a = std::move(next);
      r = rep(model_.rep_module(s), u);
    }
    msh::Tensor merged = a;
    merged += r;
    const i64 n = merged.shape()[0], c = merged.shape()[1],
              spatial = merged.shape()[2] * merged.shape()[3];
    msh::Tensor features(msh::Shape{n, c});
    for (i64 i = 0; i < n * c; ++i) {
      f64 acc = 0.0;
      for (i64 k = 0; k < spatial; ++k) acc += merged[i * spatial + k];
      features[i] = static_cast<f32>(acc / static_cast<f64>(spatial));
    }
    ProbeLayer& head = *layers_.back();
    if (steps_ != nullptr)
      replay_matmul(head, features.data(), n, features.shape()[1]);
    return run_layer(head, [&] { return head.linear->forward(features); });
  }

 private:
  static msh::HybridCoreOptions core_options(msh::KernelBackend backend) {
    msh::HybridCoreOptions options;
    options.backend = backend;
    return options;
  }

  // The executor's activation scale for a layer: calibrated |x|max / 127.
  static f32 scale(const msh::PimRepNetExecutor& source, const void* layer) {
    return std::max(source.input_amax().at(layer), 1e-6f) / 127.0f;
  }

  ProbeLayer& add(const std::string& name, msh::PeKind target) {
    auto l = std::make_unique<ProbeLayer>();
    l->name = name;
    l->index = layers_.size();
    l->matrix = &image_.get(name);
    if (target == msh::PeKind::kSram) {
      l->sram_tiles = msh::map_to_sram_pes(*l->matrix);
    } else {
      l->mram_tiles = msh::map_to_mram_pes(*l->matrix);
    }
    layers_.push_back(std::move(l));
    return *layers_.back();
  }

  template <typename Fn>
  msh::Tensor run_layer(ProbeLayer& l, Fn&& fn) {
    if (steps_ != nullptr) return fn();
    return timed(tracer_, "deploy.layer." + l.name, parent_,
                 (*layer_us_)[l.index], fn);
  }

  msh::Tensor conv(msh::Conv2d& c, const msh::Tensor& x) {
    ProbeLayer& l = *by_conv_.at(&c);
    if (steps_ != nullptr) {
      const msh::Tensor cols = timed(nullptr, "", -1, steps_->im2col, [&] {
        return msh::im2col(x, *l.geom);
      });
      const msh::Tensor rows = timed(nullptr, "", -1, steps_->transpose,
                                     [&] { return cols.transposed(); });
      replay_matmul(l, rows.data(), rows.shape()[0], rows.shape()[1]);
    }
    return run_layer(l, [&] { return l.conv->forward(x); });
  }

  // quantize -> HybridCore::matmul -> dequantize, plus on raw the flat-CSC
  // build and SIMD multiply that HybridCore::matmul performs inside.
  void replay_matmul(ProbeLayer& l, const f32* x, i64 batch, i64 k) {
    const msh::PimMatmulLayer& mm = l.matmul();
    const i64 padded = l.matrix->dense_rows(), out = l.matrix->cols();
    msh::QuantParams params;
    params.scale = mm.activation_scale();
    std::vector<msh::i8> codes(static_cast<size_t>(batch * padded));
    timed(nullptr, "", -1, steps_->quantize, [&] {
      msh::quantize_activations(x, batch, k, padded, params, codes.data(),
                                nullptr);
      return 0;
    });
    const std::vector<msh::i32> acc =
        timed(nullptr, "", -1, steps_->arch_matmul,
              [&] { return core_.matmul(mm.handle(), codes, batch); });
    if (raw_) {
      arena_.reset();
      const msh::FlatCsc flat =
          timed(nullptr, "", -1, steps_->flat_build, [&] {
            if (!l.sram_tiles.empty()) {
              std::vector<const msh::SramPeTile*> tiles;
              for (const auto& t : l.sram_tiles) tiles.push_back(&t);
              return msh::build_flat_csc_sram(tiles, out, padded, arena_);
            }
            std::vector<const msh::MramPeTile*> tiles;
            for (const auto& t : l.mram_tiles) tiles.push_back(&t);
            return msh::build_flat_csc_mram(tiles, out, padded, arena_);
          });
      std::vector<msh::i32> y(static_cast<size_t>(batch * out));
      timed(nullptr, "", -1, steps_->csc_matmul, [&] {
        msh::raw_csc_matmul(flat, codes, batch, y, arena_, nullptr);
        return 0;
      });
    }
    std::vector<f32> y(static_cast<size_t>(batch * out));
    timed(nullptr, "", -1, steps_->dequantize, [&] {
      msh::dequantize_outputs(acc.data(), batch, out,
                              mm.activation_scale() * mm.weight_scale(),
                              l.bias, y.data(), nullptr);
      return 0;
    });
  }

  msh::Tensor sequential(msh::Sequential& seq, const msh::Tensor& x) {
    msh::Tensor y = x;
    for (i64 i = 0; i < seq.size(); ++i) {
      msh::Layer& layer = seq.layer(i);
      if (auto* c = dynamic_cast<msh::Conv2d*>(&layer)) {
        y = conv(*c, y);
      } else {
        y = layer.forward(y, /*training=*/false);
      }
    }
    return y;
  }

  msh::Tensor residual(msh::ResidualBlock& block, const msh::Tensor& x) {
    msh::Tensor main = conv(block.conv1(), x);
    main = relu(block.bn1().forward(main, false));
    main = conv(block.conv2(), main);
    main = block.bn2().forward(main, false);
    msh::Tensor shortcut =
        block.has_projection()
            ? block.projection_bn().forward(conv(block.projection(), x), false)
            : x;
    main += shortcut;
    return relu(std::move(main));
  }

  msh::Tensor rep(msh::RepModule& module, const msh::Tensor& x) {
    msh::Tensor y = x;
    if (module.has_pool())
      y = avg_pool(x, module.pool().kernel(), module.pool().stride());
    y = relu(conv(module.reduce(), y));
    return conv(module.expand(), y);
  }

  msh::RepNetModel& model_;
  msh::DeploymentImage image_;
  msh::HybridCore core_;
  bool raw_;
  msh::KernelArena arena_;
  std::vector<std::unique_ptr<ProbeLayer>> layers_;
  std::map<const msh::Conv2d*, ProbeLayer*> by_conv_;
  // Per-forward state.
  std::vector<f64>* layer_us_ = nullptr;
  StepTimes* steps_ = nullptr;
  Tracer* tracer_ = nullptr;
  i64 parent_ = -1;
};

// Runs `calls` rounds of one leg, each an executor forward, a timed walk
// and a step-replay walk over the same images, and reports the leg's
// medians under `leg` (e.g. "raw_b1"). The periphery is the executor's own
// forward time minus the layers' medians: its BN, ReLU, pooling, residual
// adds and connectors, not the probe's copies of them.
void probe_leg(Fixture& fx, msh::PimRepNetExecutor& exec, ProbeNet& net,
               const std::string& leg, i64 batch, i64 calls, Tracer* tracer,
               Metrics& m, Tally& tally) {
  const std::vector<std::string> names = net.names();
  std::vector<std::vector<f64>> per_layer(names.size());
  std::vector<f64> forward_ms;
  std::vector<StepTimes> steps(static_cast<size_t>(calls));
  std::vector<f64> layer_us;
  for (i64 call = 0; call < calls; ++call) {
    const i64 first = (call * batch) % kOfflineImages;
    const msh::Tensor images = fx.images(first, batch);
    checked_forward(fx, exec, images, first, "deploy.probe.forward." + leg,
                    tracer, forward_ms, tally);
    const f64 start = now_us();
    const i64 parent =
        tracer != nullptr ? tracer->add("deploy.probe." + leg, start, start)
                          : -1;
    const msh::Tensor out = net.forward(images, layer_us, nullptr, tracer,
                                        parent);
    if (tracer != nullptr) tracer->set_end(parent, now_us());
    for (size_t i = 0; i < names.size(); ++i)
      per_layer[i].push_back(layer_us[i]);
    for (i64 r = 0; r < batch; ++r) {
      tally.check(same_row(out, r, fx.reference, first + r),
                  "layer probe " + leg + " row differs from the executor");
    }
    net.forward(images, layer_us, &steps[static_cast<size_t>(call)], nullptr,
                -1);
  }
  f64 layers_ms = 0.0;
  for (size_t i = 0; i < names.size(); ++i) {
    const f64 us = median(per_layer[i]);
    layers_ms += us / 1e3;
    m.set("deploy.layer." + names[i] + "." + leg + "_us", us, "us");
  }
  auto step_median = [&](f64 StepTimes::*field) {
    std::vector<f64> v;
    for (const StepTimes& s : steps) v.push_back(s.*field);
    return median(v);
  };
  if (leg != "modeled_b8") {
    const std::string b = leg == "raw_b1" ? "b1" : "b32";
    m.set("deploy.periphery_ms." + leg, median(forward_ms) - layers_ms, "ms");
    m.set("tensor.im2col_us." + b, step_median(&StepTimes::im2col), "us");
    m.set("tensor.transpose_us." + b, step_median(&StepTimes::transpose),
          "us");
    m.set("kernels.quantize_us." + b, step_median(&StepTimes::quantize),
          "us");
    m.set("kernels.dequantize_us." + b, step_median(&StepTimes::dequantize),
          "us");
    m.set("kernels.flat_csc_build_us." + b,
          step_median(&StepTimes::flat_build), "us");
    m.set("kernels.csc_matmul_us." + b, step_median(&StepTimes::csc_matmul),
          "us");
  }
  m.set("arch.matmul_us." + leg, step_median(&StepTimes::arch_matmul), "us");
}

}  // namespace

void run_layer_probe(Fixture& fx, Tracer* tracer, Metrics& m, Tally& tally) {
  ProbeNet raw(*fx.model, *fx.raw, msh::KernelBackend::kRaw);
  tally.check(raw.names() == fx.raw->layer_names(),
              "layer probe deploys the executor's layers in order");
  probe_leg(fx, *fx.raw, raw, "raw_b1", 1, kOfflineImages, tracer, m, tally);
  probe_leg(fx, *fx.raw, raw, "raw_b32", kOfflineImages, 8, tracer, m, tally);
  ProbeNet modeled(*fx.model, *fx.modeled, msh::KernelBackend::kModeled);
  probe_leg(fx, *fx.modeled, modeled, "modeled_b8", 8, 4, tracer, m, tally);
}

}  // namespace perfbench
