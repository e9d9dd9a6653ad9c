// The shared fixture: data, model, 1:4 pruning, reference replicas and
// the reference logits every workload checks its outputs against.
#include <cstring>
#include <numeric>

#include "bench.h"
#include "workloads/task_suite.h"

namespace perfbench {

msh::SyntheticSpec fixture_spec() {
  msh::SyntheticSpec spec;
  spec.name = "serving-load";
  spec.classes = 4;
  spec.train_per_class = 16;
  spec.test_per_class = 16;
  spec.image_size = 12;
  spec.seed = kFixtureSeed;
  return spec;
}

msh::BackboneConfig fixture_backbone() {
  msh::BackboneConfig backbone;
  backbone.stem_channels = 8;
  backbone.stage_channels = {8, 16};
  backbone.blocks_per_stage = {1, 1};
  backbone.stage_strides = {1, 2};
  return backbone;
}

msh::RepNetConfig fixture_rep_config() {
  return msh::RepNetConfig{.bottleneck_divisor = 8, .min_bottleneck = 8};
}

msh::SyntheticSpec adaptation_spec() {
  msh::SyntheticSpec spec =
      msh::adaptation_task_spec(fixture_spec(), kFixtureSeed + 300);
  spec.train_per_class = 20;
  return spec;
}

msh::Tensor Fixture::images(i64 begin, i64 count) const {
  const msh::Shape& s = pool.shape();
  const i64 per_image = s[1] * s[2] * s[3];
  msh::Tensor out(msh::Shape{count, s[1], s[2], s[3]});
  std::memcpy(out.data(), pool.data() + begin * per_image,
              static_cast<size_t>(count * per_image) * sizeof(f32));
  return out;
}

msh::Tensor Fixture::logits_of(msh::PimRepNetExecutor& exec) const {
  msh::Tensor out;
  for (i64 i = 0; i < pool_size(); ++i) {
    const msh::Tensor row = exec.forward(images(i, 1));
    const i64 classes = row.shape()[1];
    if (out.empty()) out = msh::Tensor(msh::Shape{pool_size(), classes});
    std::memcpy(out.data() + i * classes, row.data(),
                static_cast<size_t>(classes) * sizeof(f32));
  }
  return out;
}

bool same_row(const msh::Tensor& logits, i64 row, const msh::Tensor& ref,
              i64 ref_row) {
  if (logits.shape().rank() != 2 || logits.shape()[1] != ref.shape()[1])
    return false;
  const i64 cols = ref.shape()[1];
  return std::memcmp(logits.data() + row * cols, ref.data() + ref_row * cols,
                     static_cast<size_t>(cols) * sizeof(f32)) == 0;
}

std::unique_ptr<Fixture> make_fixture(u64 seed, Tally& tally) {
  auto fx = std::make_unique<Fixture>();
  fx->data = msh::make_synthetic_dataset(fixture_spec());
  msh::Rng model_rng(kFixtureSeed);
  fx->model = std::make_unique<msh::RepNetModel>(
      fixture_backbone(), fixture_rep_config(), fixture_spec().classes,
      model_rng);
  // On-device learning setup: the backbone is frozen (MRAM-resident).
  fx->model->backbone().set_trainable(false);
  // The paper's 1:4 post-training pruning of the backbone, and the Rep
  // convs at the same pattern (examples/full_system_demo.cpp). The stem
  // (K = 27) and the classifier stay dense.
  fx->backbone_plan.prune(fx->model->backbone_params(), msh::kSparse1of4,
                          /*use_gradient_saliency=*/false);
  fx->rep_plan.prune(fx->model->rep_conv_params(), msh::kSparse1of4,
                     /*use_gradient_saliency=*/false);

  // The workload seed orders the request pool.
  const msh::Dataset& test = fx->data.test;
  std::vector<i64> order(static_cast<size_t>(test.size()));
  std::iota(order.begin(), order.end(), 0);
  msh::Rng pool_rng(seed ^ 0x9e3779b97f4a7c15ull);
  pool_rng.shuffle(order);
  fx->pool = msh::Tensor(test.images.shape());
  const i64 per_image = test.images.numel() / test.size();
  for (size_t i = 0; i < order.size(); ++i) {
    std::memcpy(fx->pool.data() + static_cast<i64>(i) * per_image,
                test.images.data() + order[i] * per_image,
                static_cast<size_t>(per_image) * sizeof(f32));
  }

  msh::PimExecutorOptions raw_options;
  raw_options.backend = msh::KernelBackend::kRaw;
  fx->raw = std::make_unique<msh::PimRepNetExecutor>(*fx->model,
                                                     fx->data.train,
                                                     raw_options);
  msh::PimExecutorOptions modeled_options;
  modeled_options.backend = msh::KernelBackend::kModeled;
  fx->modeled = std::make_unique<msh::PimRepNetExecutor>(
      *fx->model, fx->data.train, modeled_options);
  tally.check(fx->raw->sparse_deployments() == kSparseLayers,
              "fixture deploys " +
                  std::to_string(fx->raw->sparse_deployments()) +
                  " sparse layers, expected " +
                  std::to_string(kSparseLayers));
  fx->reference = fx->logits_of(*fx->raw);
  return fx;
}

}  // namespace perfbench
