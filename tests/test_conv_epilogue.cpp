// The conv output epilogue (BN, residual plane, ReLU folded into the conv
// output pass) against the unfused layers it replaces: every comparison
// is byte equality, so it also tells -0.0 from +0.0 and NaN payloads.
//
// The binary also replaces the global operator new with one that counts
// bytes, so a warmed forward's heap traffic is a wall-clock-free check.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <new>
#include <string>

#include "deploy/pim_executor.h"
#include "kernels/quant_kernels.h"
#include "workloads/dataset.h"

namespace {
std::atomic<long> g_allocations{0};
std::atomic<long> g_allocated_bytes{0};
/// While set, every fresh heap block is filled with 0xA5 bytes.
std::atomic<bool> g_poison_new{false};
}  // namespace

// Out of line, so the compiler never pairs an inlined free() with the
// allocation of a new-expression it knows as the builtin operator new.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(static_cast<long>(size),
                              std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    if (g_poison_new.load(std::memory_order_relaxed)) {
      std::memset(p, 0xA5, size);
    }
    return p;
  }
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

/// Prints a backend as its name: gtest_discover_tests folds the printed
/// parameter into each CTest name, and an enum class without a printer
/// prints as raw object bytes.
static void PrintTo(KernelBackend backend, std::ostream* os) {
  *os << to_string(backend);
}

namespace {

using ReluForm = ConvEpilogue::Relu;

void expect_bytes_equal(const Tensor& got, const Tensor& want) {
  ASSERT_EQ(got.shape(), want.shape());
  for (i64 i = 0; i < got.numel(); ++i) {
    ASSERT_EQ(std::bit_cast<u32>(got[i]), std::bit_cast<u32>(want[i]))
        << "element " << i << ": " << got[i] << " vs " << want[i];
  }
}

// The residual and Rep paths' ReLU, unfused.
Tensor relu_max(Tensor x) {
  for (i64 i = 0; i < x.numel(); ++i) x[i] = std::max(x[i], 0.0f);
  return x;
}

// The unfused composition of one epilogue: BatchNorm2d's eval forward,
// `+=` and the site's ReLU, one whole-tensor pass each.
Tensor unfused(const Tensor& conv_out, BatchNorm2d* bn, const Tensor* residual,
               ReluForm relu) {
  Tensor y = bn != nullptr ? bn->forward(conv_out, /*training=*/false)
                           : conv_out;
  if (residual != nullptr) y += *residual;
  if (relu == ReluForm::kPositive) y = Relu().forward(y, /*training=*/false);
  if (relu == ReluForm::kMax) y = relu_max(std::move(y));
  return y;
}

// Randomizes the affine and running statistics so BN is no identity.
void randomize_bn(BatchNorm2d& bn, Rng& rng) {
  const Shape shape{bn.channels()};
  bn.set_running_stats(Tensor::randn(shape, rng, 0.0f, 0.5f),
                       Tensor::uniform(shape, rng, 0.3f, 2.0f));
  bn.params()[0]->value = Tensor::uniform(shape, rng, 0.5f, 1.5f);
  bn.params()[1]->value = Tensor::randn(shape, rng, 0.0f, 0.2f);
}

TEST(ConvEpilogue, EdgeCasesMatchUnfusedLayers) {
  // Channel 0 (g 1, mean 0, beta -0.0) keeps -0.0 through BN; channel 1
  // has a negative running variance, so every BN output is NaN; channel 2
  // is an ordinary affine.
  constexpr f32 kEps = 1e-5f;
  BatchNorm2d bn(3, 0.1f, kEps);
  bn.set_running_stats(Tensor::from_data(Shape{3}, {0.0f, 0.0f, 0.25f}),
                       Tensor::from_data(Shape{3}, {1.0f - kEps, -1.0f, 0.5f}));
  bn.params()[0]->value = Tensor::from_data(Shape{3}, {1.0f, 1.0f, 1.5f});
  bn.params()[1]->value = Tensor::from_data(Shape{3}, {-0.0f, 0.0f, -0.1f});

  const f32 nan = std::numeric_limits<f32>::quiet_NaN();
  const std::vector<f32> plane = {-0.0f, 0.0f,  -1.5f, 2.0f,   1e-30f,
                                  -1e-30f, nan, 0.25f, -0.25f, 3.0f};
  const i64 spatial = static_cast<i64>(plane.size());
  std::vector<f32> values;
  for (i64 img = 0; img < 2; ++img)
    for (i64 ch = 0; ch < 3; ++ch)
      values.insert(values.end(), plane.begin(), plane.end());
  const Tensor conv_out = Tensor::from_data(Shape{2, 3, 1, spatial}, values);
  // The residual plane carries signed zeros and a NaN of its own.
  Tensor residual(conv_out.shape(), -0.0f);
  residual[4] = nan;
  residual[spatial + 3] = 0.5f;

  for (const bool with_bn : {false, true}) {
    for (const bool with_residual : {false, true}) {
      for (const ReluForm relu : {ReluForm::kNone, ReluForm::kPositive, ReluForm::kMax}) {
        SCOPED_TRACE(std::string(with_bn ? "bn" : "no-bn") +
                     (with_residual ? " residual" : "") + " relu " +
                     std::to_string(static_cast<int>(relu)));
        const ConvEpilogue epilogue{
            .bn = with_bn ? &bn : nullptr,
            .residual = with_residual ? &residual : nullptr,
            .relu = relu};
        Tensor fused = conv_out;
        epilogue.apply(fused);
        expect_bytes_equal(fused, unfused(conv_out, with_bn ? &bn : nullptr,
                                          epilogue.residual, relu));
      }
    }
  }

  // The two ReLU forms really differ on these planes: nn::Relu maps -0.0
  // and NaN to +0.0, std::max keeps both.
  Tensor positive = conv_out, max = conv_out;
  ConvEpilogue{.relu = ReluForm::kPositive}.apply(positive);
  ConvEpilogue{.relu = ReluForm::kMax}.apply(max);
  EXPECT_EQ(std::bit_cast<u32>(positive[0]), 0u);
  EXPECT_EQ(std::bit_cast<u32>(max[0]), std::bit_cast<u32>(-0.0f));
  EXPECT_EQ(positive[6], 0.0f);
  EXPECT_TRUE(std::isnan(max[6]));
  // And BN's NaN channel reaches the ReLU: zeroed by one form, kept by
  // the other; channel 0 passes -0.0 through BN.
  Tensor bn_positive = conv_out, bn_max = conv_out;
  ConvEpilogue{.bn = &bn, .relu = ReluForm::kPositive}.apply(bn_positive);
  ConvEpilogue{.bn = &bn, .relu = ReluForm::kMax}.apply(bn_max);
  EXPECT_EQ(bn_positive[spatial + 3], 0.0f);
  EXPECT_TRUE(std::isnan(bn_max[spatial + 3]));
  EXPECT_EQ(std::bit_cast<u32>(bn_max[0]), std::bit_cast<u32>(-0.0f));
}

TEST(ConvEpilogue, DequantizeApplyMatchesDequantizeThenApplyPlane) {
  // The hardware conv's one-pass epilogue against dequantizing every
  // plane and then apply_plane, byte for byte, for all 12 BN x residual x
  // ReLU forms. Scale -1 turns a zero accumulator into -0.0, 1e30 sends
  // large ones to +-inf; biases, BN channels and the residual carry -0.0,
  // NaN and +-inf of their own.
  constexpr f32 kEps = 1e-5f;
  const f32 inf = std::numeric_limits<f32>::infinity();
  const f32 nan = std::numeric_limits<f32>::quiet_NaN();
  const ConvPlanes layout = ConvPlanes::make(3, 2, 4, 5, 3, 1, 1);
  constexpr i64 kChannels = 4;
  const Shape out_shape{layout.batch, kChannels, layout.out_h, layout.out_w};

  Rng rng(41);
  std::vector<i32> acc(static_cast<size_t>(kChannels * layout.positions));
  for (size_t i = 0; i < acc.size(); ++i) {
    acc[i] = static_cast<i32>(rng.uniform_int(-300, 300));
    if (i % 7 == 0) acc[i] = 0;
    if (i % 11 == 0) acc[i] = i % 2 == 0 ? 1 << 30 : -(1 << 30);
  }
  const std::vector<f32> bias = {-0.0f, nan, inf, 0.5f};

  // Channel 0 keeps -0.0 through BN, channel 1 (negative variance) makes
  // every output NaN, channel 2 has an infinite gamma, channel 3 is an
  // ordinary affine.
  BatchNorm2d bn(kChannels, 0.1f, kEps);
  bn.set_running_stats(
      Tensor::from_data(Shape{kChannels}, {0.0f, 0.0f, 0.25f, -0.5f}),
      Tensor::from_data(Shape{kChannels}, {1.0f - kEps, -1.0f, 0.5f, 2.0f}));
  bn.params()[0]->value =
      Tensor::from_data(Shape{kChannels}, {1.0f, 1.0f, inf, 1.5f});
  bn.params()[1]->value =
      Tensor::from_data(Shape{kChannels}, {-0.0f, 0.0f, -0.1f, 0.2f});
  Tensor residual = Tensor::randn(out_shape, rng);
  for (i64 i = 0; i < residual.numel(); i += 5) {
    const f32 specials[] = {-0.0f, nan, inf, -inf, 0.0f};
    residual[i] = specials[(i / 5) % 5];
  }

  for (const f32 scale : {-1.0f, 0.03f, 1e30f}) {
    for (const bool with_bias : {false, true}) {
      // Dequantized planes, as the unfused path writes them: each row
      // through dequantize_outputs (built without FP contraction, unlike
      // this file), plus the bias, 0.0f when the conv has none.
      Tensor plain(out_shape);
      const i64 wo = layout.out_w, spatial = layout.out_h * wo;
      for (i64 p = 0; p < layout.batch * kChannels; ++p) {
        const i64 img = p / kChannels, oc = p % kChannels;
        const std::vector<f32> row_bias(
            static_cast<size_t>(wo),
            with_bias ? bias[static_cast<size_t>(oc)] : 0.0f);
        for (i64 oy = 0; oy < layout.out_h; ++oy) {
          dequantize_outputs(
              acc.data() + oc * layout.positions + layout.position(img, oy, 0),
              1, wo, scale, row_bias.data(),
              plain.data() + p * spatial + oy * wo);
        }
      }
      for (const bool with_bn : {false, true}) {
        for (const bool with_residual : {false, true}) {
          for (const ReluForm relu :
               {ReluForm::kNone, ReluForm::kPositive, ReluForm::kMax}) {
            SCOPED_TRACE("scale " + std::to_string(scale) +
                         (with_bias ? " bias" : "") +
                         (with_bn ? " bn" : "") +
                         (with_residual ? " residual" : "") + " relu " +
                         std::to_string(static_cast<int>(relu)));
            const ConvEpilogue epilogue{
                .bn = with_bn ? &bn : nullptr,
                .residual = with_residual ? &residual : nullptr,
                .relu = relu};
            Tensor want = plain;
            epilogue.apply(want);
            Tensor got(out_shape);
            KernelArena scratch;
            epilogue.dequantize_apply(acc.data(), layout, scale,
                                      with_bias ? bias.data() : nullptr, &got,
                                      nullptr, scratch);
            expect_bytes_equal(got, want);
          }
        }
      }
    }
  }
}

TEST(ConvEpilogue, PimConvFusedPassMatchesPlainForwardThenLayers) {
  // PimConv's in-scatter epilogue against its own plain output finished
  // by the unfused layers, NaN-producing BN channel included. The same
  // pass through forward_codes, for a 3x3 padding-1 and a 1x1 reader,
  // gives the reader the codes of that output and the same f32 values.
  const Conv2dGeometry geom{.in_channels = 4,
                            .out_channels = 6,
                            .kernel = 3,
                            .stride = 1,
                            .padding = 1};
  Rng rng(7);
  Conv2d conv(geom, rng, /*bias=*/true);
  conv.bias().value = Tensor::randn(Shape{6}, rng);
  BatchNorm2d bn(6);
  randomize_bn(bn, rng);
  Tensor var = bn.running_var();
  var[4] = -2.0f;
  bn.set_running_stats(bn.running_mean(), var);
  Conv2d reader3(Conv2dGeometry{.in_channels = 6,
                                .out_channels = 5,
                                .kernel = 3,
                                .stride = 1,
                                .padding = 1},
                 rng, /*bias=*/true);
  Conv2d reader1(Conv2dGeometry{.in_channels = 6,
                                .out_channels = 3,
                                .kernel = 1,
                                .stride = 1,
                                .padding = 0},
                 rng, /*bias=*/false);
  Conv2d other(Conv2dGeometry{.in_channels = 5,
                              .out_channels = 3,
                              .kernel = 1,
                              .stride = 1,
                              .padding = 0},
               rng, /*bias=*/false);

  for (const i64 batch : {1, 7}) {
    const Tensor x = Tensor::randn(Shape{batch, 4, 5, 6}, rng);
    Tensor residual = Tensor::randn(Shape{batch, 6, 5, 6}, rng);
    residual[3] = -0.0f;
    for (const KernelBackend backend :
         {KernelBackend::kModeled, KernelBackend::kRaw}) {
      HybridCoreOptions options;
      options.backend = backend;
      HybridCore core(options);
      PimConv pim(core, conv, kSparse1of4, PeKind::kSram, 0.03f);
      PimConv readers[] = {
          PimConv(core, reader3, kSparse1of4, PeKind::kMram, 0.05f),
          PimConv(core, reader1, kSparse1of4, PeKind::kSram, 0.02f)};
      const Tensor plain = pim.forward(x);
      for (const ReluForm relu : {ReluForm::kNone, ReluForm::kPositive, ReluForm::kMax}) {
        SCOPED_TRACE("b" + std::to_string(batch) + " " + to_string(backend) +
                     " relu " + std::to_string(static_cast<int>(relu)));
        const ConvEpilogue epilogue{
            .bn = &bn, .residual = &residual, .relu = relu};
        const Tensor fused = pim.forward(x, epilogue);
        expect_bytes_equal(fused, unfused(plain, &bn, &residual, relu));
        for (PimConv& reader : readers) {
          Tensor values;
          const Tensor read =
              reader.forward(pim.forward_codes(x, epilogue, reader, &values));
          expect_bytes_equal(read, reader.forward(fused));
          expect_bytes_equal(values, fused);
        }
      }
      PimConv mismatched(core, other, kSparse1of4, PeKind::kSram, 0.02f);
      EXPECT_THROW(pim.forward_codes(x, {}, mismatched), ContractError);
    }
  }
}

// ---- executor walk -------------------------------------------------------

using ConvFn = std::function<Tensor(Conv2d&, const Tensor&, PeKind)>;
using LinearFn = std::function<Tensor(const Tensor&)>;

// The executor's walk written out unfused: each conv output goes through
// BatchNorm2d::forward, `+=` and its site's ReLU as separate whole-tensor
// passes, the stem through its own layers.
Tensor unfused_walk(RepNetModel& model, const Tensor& images,
                    const ConvFn& conv, const LinearFn& classifier) {
  Backbone& backbone = model.backbone();
  Tensor a = images;
  for (i64 i = 0; i < backbone.stem().size(); ++i) {
    Layer& layer = backbone.stem().layer(i);
    auto* c = dynamic_cast<Conv2d*>(&layer);
    a = c != nullptr ? conv(*c, a, PeKind::kMram)
                     : layer.forward(a, /*training=*/false);
  }
  Tensor r;
  for (i64 s = 0; s < backbone.num_stages(); ++s) {
    Tensor u = a;
    if (!r.empty()) u += r;
    Tensor next = u;
    for (i64 b = 0; b < backbone.stage(s).size(); ++b) {
      auto& block = dynamic_cast<ResidualBlock&>(backbone.stage(s).layer(b));
      Tensor main = relu_max(block.bn1().forward(
          conv(block.conv1(), next, PeKind::kMram), false));
      main = block.bn2().forward(conv(block.conv2(), main, PeKind::kMram),
                                 false);
      main += block.has_projection()
                  ? block.projection_bn().forward(
                        conv(block.projection(), next, PeKind::kMram), false)
                  : next;
      next = relu_max(std::move(main));
    }
    a = next;
    RepModule& rep = model.rep_module(s);
    const Tensor y = rep.has_pool() ? rep.pool().forward(u, false) : u;
    r = conv(rep.expand(),
             relu_max(conv(rep.reduce(), y, PeKind::kSram)), PeKind::kSram);
  }
  Tensor merged = a;
  merged += r;
  const i64 n = merged.shape()[0], c = merged.shape()[1],
            spatial = merged.shape()[2] * merged.shape()[3];
  Tensor features(Shape{n, c});
  for (i64 i = 0; i < n * c; ++i) {
    f64 acc = 0.0;
    for (i64 sp = 0; sp < spatial; ++sp) acc += merged[i * spatial + sp];
    features[i] = static_cast<f32>(acc / static_cast<f64>(spatial));
  }
  return classifier(features);
}

class ExecutorEpilogueTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticSpec spec;
    spec.name = "epilogue-task";
    spec.classes = 4;
    spec.train_per_class = 10;
    spec.test_per_class = 10;
    spec.image_size = 8;
    spec.seed = 3;
    data_ = make_synthetic_dataset(spec);

    // Stage 0 keeps the stem width at stride 1 (identity shortcut, Rep
    // module without pool); stage 1 doubles it at stride 2 (projection
    // shortcut, pooled Rep module).
    BackboneConfig cfg;
    cfg.stem_channels = 8;
    cfg.stage_channels = {8, 16};
    cfg.blocks_per_stage = {1, 1};
    cfg.stage_strides = {1, 2};
    Rng rng(11);
    model_ = std::make_unique<RepNetModel>(
        cfg, RepNetConfig{.bottleneck_divisor = 8, .min_bottleneck = 8}, 4,
        rng);
    for (BatchNorm2d* bn : model_->backbone().batchnorm_layers())
      randomize_bn(*bn, rng);
  }

  TrainTestSplit data_;
  std::unique_ptr<RepNetModel> model_;
};

TEST_F(ExecutorEpilogueTest, ModelCoversEverySiteKind) {
  Backbone& backbone = model_->backbone();
  EXPECT_FALSE(
      dynamic_cast<ResidualBlock&>(backbone.stage(0).layer(0)).has_projection());
  EXPECT_TRUE(
      dynamic_cast<ResidualBlock&>(backbone.stage(1).layer(0)).has_projection());
  EXPECT_FALSE(model_->rep_module(0).has_pool());
  EXPECT_TRUE(model_->rep_module(1).has_pool());
}

TEST_F(ExecutorEpilogueTest, CalibrationRecordsTheUnfusedSoftwareTable) {
  PimRepNetExecutor executor(*model_, data_.train);

  // The executor's calibration batches, walked unfused in software.
  PimExecutorOptions defaults;
  std::unordered_map<const void*, f32> want;
  auto record = [&](const void* layer, const Tensor& x) {
    auto [it, inserted] = want.emplace(layer, x.abs_max());
    if (!inserted) it->second = std::max(it->second, x.abs_max());
  };
  const i64 size = data_.train.size();
  const i64 batch = std::min(defaults.calibration_batch, size);
  for (i64 b = 0; b < defaults.calibration_batches; ++b) {
    const i64 begin = (b * batch) % std::max<i64>(1, size - batch + 1);
    unfused_walk(
        *model_, data_.train.batch_images(begin, batch),
        [&](Conv2d& conv, const Tensor& x, PeKind) {
          record(&conv, x);
          return conv.forward(x, false);
        },
        [&](const Tensor& x) {
          record(&model_->classifier(), x);
          return model_->classifier().forward(x, false);
        });
  }

  ASSERT_EQ(executor.input_amax().size(), want.size());
  for (const auto& [layer, amax] : want) {
    const auto it = executor.input_amax().find(layer);
    ASSERT_NE(it, executor.input_amax().end());
    EXPECT_EQ(std::bit_cast<u32>(it->second), std::bit_cast<u32>(amax));
  }
}

// The executor's layers deployed again on a test-side core from its
// calibration table, run through unfused_walk one op at a time.
class UnfusedDeployment {
 public:
  UnfusedDeployment(RepNetModel& model, const PimRepNetExecutor& executor,
                    KernelBackend backend, NmConfig nm)
      : model_(model),
        executor_(executor),
        nm_(nm),
        core_(HybridCoreOptions{.backend = backend}),
        classifier_(core_, model.classifier(), nm, PeKind::kSram,
                    scale(&model.classifier())) {}

  Tensor forward(const Tensor& images) {
    return unfused_walk(
        model_, images,
        [&](Conv2d& c, const Tensor& x, PeKind target) {
          auto& pim = convs_[&c];
          if (!pim) {
            pim = std::make_unique<PimConv>(core_, c, nm_, target, scale(&c));
          }
          return pim->forward(x);
        },
        [&](const Tensor& x) { return classifier_.forward(x); });
  }

 private:
  f32 scale(const void* layer) const {
    return std::max(executor_.input_amax().at(layer), 1e-6f) / 127.0f;
  }

  RepNetModel& model_;
  const PimRepNetExecutor& executor_;
  NmConfig nm_;
  HybridCore core_;
  PimLinear classifier_;
  std::unordered_map<const Conv2d*, std::unique_ptr<PimConv>> convs_;
};

TEST_F(ExecutorEpilogueTest, EachSiteKeepsItsReluForm) {
  // A negative running variance makes one BN channel all NaN. At the
  // stem nn::Relu zeroes it; a max-ReLU would let the NaN reach the
  // identity shortcut and, through the merge, the classifier. In block
  // conv1 the max-ReLU keeps the NaN, which conv2 quantizes to qmin;
  // nn::Relu would give code 0. Either swap changes the logits.
  auto poison = [](BatchNorm2d& bn, i64 channel) {
    Tensor var = bn.running_var();
    var[channel] = -1.0f;
    bn.set_running_stats(bn.running_mean(), var);
  };
  Backbone& backbone = model_->backbone();
  poison(dynamic_cast<BatchNorm2d&>(backbone.stem().layer(1)), 0);
  poison(dynamic_cast<ResidualBlock&>(backbone.stage(0).layer(0)).bn1(), 1);

  PimRepNetExecutor executor(*model_, data_.train);
  UnfusedDeployment unfused(*model_, executor, KernelBackend::kRaw,
                            PimExecutorOptions{}.nm);
  const Tensor images = data_.test.batch_images(0, 7);
  const Tensor logits = executor.forward(images);
  for (i64 i = 0; i < logits.numel(); ++i) ASSERT_TRUE(std::isfinite(logits[i]));
  expect_bytes_equal(logits, unfused.forward(images));
}

TEST_F(ExecutorEpilogueTest, RepEdgeCodesSaturateAndMapNaNToQmin) {
  // Rep reduce -> expand is a chained edge: reduce's epilogue writes
  // expand's input codes with no f32 tensor between. After calibration,
  // one reduce channel's bias becomes NaN (kept by the max-ReLU, so its
  // code is qmin) and another's 1e6 (far past the calibrated range, so
  // its code saturates at qmax). The clone deploys the poisoned biases
  // on the calibrated scales; the unfused walk quantizes the same values
  // through quantize_conv_planes.
  const f32 nan = std::numeric_limits<f32>::quiet_NaN();
  for (const KernelBackend backend :
       {KernelBackend::kRaw, KernelBackend::kModeled}) {
    SCOPED_TRACE(to_string(backend));
    std::vector<Tensor> saved;
    for (i64 m = 0; m < model_->num_rep_modules(); ++m)
      saved.push_back(model_->rep_module(m).reduce().bias().value);
    PimExecutorOptions options;
    options.backend = backend;
    PimRepNetExecutor calibrated(*model_, data_.train, options);
    for (i64 m = 0; m < model_->num_rep_modules(); ++m) {
      Tensor& bias = model_->rep_module(m).reduce().bias().value;
      bias[0] = nan;
      bias[1] = 1e6f;
    }
    const auto executor = calibrated.clone();
    UnfusedDeployment unfused(*model_, calibrated, backend, options.nm);
    const Tensor images = data_.test.batch_images(0, 7);
    const Tensor logits = executor->forward(images);
    for (i64 i = 0; i < logits.numel(); ++i)
      ASSERT_TRUE(std::isfinite(logits[i]));
    expect_bytes_equal(logits, unfused.forward(images));
    for (i64 m = 0; m < model_->num_rep_modules(); ++m)
      model_->rep_module(m).reduce().bias().value =
          saved[static_cast<size_t>(m)];
  }
}

TEST_F(ExecutorEpilogueTest, SiblingsWithOtherQuantizationQuantizeAlone) {
  // Codes are shared only between convs whose QuantParams compare equal.
  // Deployed on calibration ranges where rep0.reduce's and stage1.proj's
  // differ from their hosts' (stage0.conv1's and stage1.conv1's: 1.5x),
  // each quantizes its input itself; the logits equal the unfused walk's
  // on the same scales, and differ from the calibrated executor's.
  auto& block1 = dynamic_cast<ResidualBlock&>(model_->backbone().stage(1).layer(0));
  for (const KernelBackend backend :
       {KernelBackend::kRaw, KernelBackend::kModeled}) {
    SCOPED_TRACE(to_string(backend));
    PimExecutorOptions options;
    options.backend = backend;
    PimRepNetExecutor calibrated(*model_, data_.train, options);
    auto amax = calibrated.input_amax();
    amax.at(&model_->rep_module(0).reduce()) *= 1.5f;
    amax.at(&block1.projection()) *= 1.5f;
    const auto executor = PimRepNetExecutor::deploy_from_image(
        *model_, options, amax,
        std::make_shared<const DeploymentImage>(calibrated.export_image()));
    UnfusedDeployment unfused(*model_, *executor, backend, options.nm);
    for (const i64 batch : {1, 7}) {
      SCOPED_TRACE("b" + std::to_string(batch));
      const Tensor images = data_.test.batch_images(0, batch);
      const Tensor logits = executor->forward(images);
      expect_bytes_equal(logits, unfused.forward(images));
      EXPECT_GT(max_abs_diff(logits, calibrated.forward(images)), 0.0f);
    }
  }
}

TEST(RawForwardAllocations, WarmedForwardAllocatesLessThanUnchainedWalk) {
  // The benchmark fixture's geometry (12 x 12 images, stem 8, stages 8
  // and 16). A warmed raw forward allocates only the tensors the walk
  // returns between sites: no f32 tensor for a chained edge's
  // intermediate (block conv1 -> conv2, Rep reduce -> expand), no pooled
  // Rep input (the pool writes reduce's codes), no copy of the stem
  // output and no Shape temporaries for a conv's planes. The same
  // forward with every conv unchained made 28 allocations, of 39,664
  // bytes at batch 1 and 1,256,352 at batch 32; with the chains alone it
  // made 22, of 22,352 and 703,360; this one makes 16, of 21,040 and
  // 666,336. Its conv outputs and features are not zero-filled first
  // (Tensor::uninitialized): every fresh heap block is poisoned below,
  // and the logits stay those of an unpoisoned forward.
  SyntheticSpec spec;
  spec.name = "allocations";
  spec.classes = 4;
  spec.train_per_class = 16;
  spec.test_per_class = 16;
  spec.image_size = 12;
  spec.seed = 5;
  const TrainTestSplit data = make_synthetic_dataset(spec);
  BackboneConfig cfg;
  cfg.stem_channels = 8;
  cfg.stage_channels = {8, 16};
  cfg.blocks_per_stage = {1, 1};
  cfg.stage_strides = {1, 2};
  Rng rng(13);
  RepNetModel model(
      cfg, RepNetConfig{.bottleneck_divisor = 8, .min_bottleneck = 8}, 4,
      rng);
  PimRepNetExecutor executor(model, data.train);
  for (const auto& [batch, max_bytes] :
       {std::pair<i64, long>{1, 21040}, {32, 666336}}) {
    SCOPED_TRACE("b" + std::to_string(batch));
    const Tensor images = data.test.batch_images(0, batch);
    for (int i = 0; i < 3; ++i) executor.forward(images);
    const long bytes = g_allocated_bytes.load();
    const long count = g_allocations.load();
    const Tensor logits = executor.forward(images);
    const long forward_bytes = g_allocated_bytes.load() - bytes;
    const long forward_count = g_allocations.load() - count;
    EXPECT_LE(forward_bytes, max_bytes);
    EXPECT_LE(forward_count, 16);

    g_poison_new.store(true);
    const Tensor poisoned = executor.forward(images);
    const Tensor fresh = Tensor::uninitialized(Shape{4});
    g_poison_new.store(false);
    expect_bytes_equal(poisoned, logits);
    // The unwritten tensor still holds the poison: nothing filled it.
    EXPECT_EQ(std::bit_cast<u32>(fresh[0]), 0xA5A5A5A5u);
  }
}

class ExecutorEpilogueWalkTest
    : public ExecutorEpilogueTest,
      public ::testing::WithParamInterface<KernelBackend> {};

TEST_P(ExecutorEpilogueWalkTest, FusedHardwareWalkMatchesUnfusedComposition) {
  const KernelBackend backend = GetParam();
  PimExecutorOptions options;
  options.backend = backend;
  PimRepNetExecutor executor(*model_, data_.train, options);
  UnfusedDeployment unfused(*model_, executor, backend, options.nm);
  for (const i64 batch : {1, 7, 32}) {
    SCOPED_TRACE("b" + std::to_string(batch));
    const Tensor images = data_.test.batch_images(3, batch);
    expect_bytes_equal(executor.forward(images), unfused.forward(images));
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, ExecutorEpilogueWalkTest,
                         ::testing::Values(KernelBackend::kRaw,
                                           KernelBackend::kModeled));

}  // namespace
}  // namespace msh
