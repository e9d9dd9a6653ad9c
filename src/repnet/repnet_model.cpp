#include "repnet/repnet_model.h"

namespace msh {

RepNetModel::RepNetModel(const BackboneConfig& backbone_cfg,
                         const RepNetConfig& rep_cfg, i64 num_classes,
                         Rng& rng)
    : backbone_(backbone_cfg, rng),
      gap_("gap"),
      flatten_("flatten"),
      classifier_rng_(rng.fork()) {
  for (i64 s = 0; s < backbone_.num_stages(); ++s) {
    const i64 in_ch = backbone_.stage_in_channels(s);
    const i64 out_ch = backbone_.stage_out_channels(s);
    reps_.push_back(std::make_unique<RepModule>(
        in_ch, out_ch, rep_cfg.bottleneck_for(out_ch),
        backbone_.stage_stride(s), rng, "rep" + std::to_string(s)));
  }
  classifier_ = std::make_unique<Linear>(
      backbone_cfg.feature_channels(), num_classes, classifier_rng_,
      /*bias=*/true, "classifier");
}

RepModule& RepNetModel::rep_module(i64 i) {
  MSH_REQUIRE(i >= 0 && i < num_rep_modules());
  return *reps_[static_cast<size_t>(i)];
}

Tensor RepNetModel::forward_features(const Tensor& x, bool training) {
  Tensor a = backbone_.forward_stem(x, training);
  Tensor r;  // empty means "no rep contribution yet"
  for (i64 s = 0; s < backbone_.num_stages(); ++s) {
    Tensor u = a;
    if (!r.empty()) u += r;  // activation connector (element-wise)
    a = backbone_.forward_stage(s, u, training);
    r = reps_[static_cast<size_t>(s)]->forward(u, training);
  }
  Tensor merged = a;
  merged += r;
  return flatten_.forward(gap_.forward(merged, training), training);
}

Tensor RepNetModel::forward(const Tensor& x, bool training) {
  return classifier_->forward(forward_features(x, training), training);
}

void RepNetModel::backward_features(const Tensor& grad_features) {
  Tensor g_merged = gap_.backward(flatten_.backward(grad_features));

  // a_S + r_S both receive g_merged.
  Tensor g_a = g_merged;
  Tensor g_r = std::move(g_merged);
  for (i64 s = backbone_.num_stages() - 1; s >= 0; --s) {
    Tensor g_u = backbone_.backward_stage(s, g_a);
    g_u += reps_[static_cast<size_t>(s)]->backward(g_r);
    // u_s = a_{s-1} + r_{s-1}: the same gradient reaches both summands.
    g_a = g_u;
    g_r = std::move(g_u);
  }
  backbone_.backward_stem(g_a);
}

void RepNetModel::backward(const Tensor& grad_logits) {
  backward_features(classifier_->backward(grad_logits));
}

std::vector<Param*> RepNetModel::learnable_params() {
  std::vector<Param*> all;
  for (auto& rep : reps_) {
    for (Param* p : rep->params()) all.push_back(p);
  }
  for (Param* p : classifier_->params()) all.push_back(p);
  return all;
}

std::vector<Param*> RepNetModel::rep_params() {
  std::vector<Param*> all;
  for (auto& rep : reps_) {
    for (Param* p : rep->params()) all.push_back(p);
  }
  return all;
}

std::vector<Param*> RepNetModel::rep_conv_params() {
  std::vector<Param*> all;
  for (auto& rep : reps_) {
    for (Param* p : rep->params()) {
      // Conv weight matrices only (rank 2 [out, K]); biases stay dense.
      if (p->value.shape().rank() == 2) all.push_back(p);
    }
  }
  return all;
}

void RepNetModel::copy_state_from(RepNetModel& other) {
  const auto copy = [](std::vector<Param*> dst, std::vector<Param*> src) {
    MSH_REQUIRE(dst.size() == src.size());
    for (size_t i = 0; i < dst.size(); ++i) {
      MSH_REQUIRE(dst[i]->value.shape() == src[i]->value.shape());
      dst[i]->value = src[i]->value;
      dst[i]->mask = src[i]->mask;
      dst[i]->zero_grad();
    }
  };
  copy(backbone_params(), other.backbone_params());
  copy(learnable_params(), other.learnable_params());
  auto dst_bn = backbone_.batchnorm_layers();
  auto src_bn = other.backbone().batchnorm_layers();
  MSH_REQUIRE(dst_bn.size() == src_bn.size());
  for (size_t i = 0; i < dst_bn.size(); ++i) {
    dst_bn[i]->set_running_stats(src_bn[i]->running_mean(),
                                 src_bn[i]->running_var());
    dst_bn[i]->set_frozen_stats(src_bn[i]->frozen_stats());
  }
}

void RepNetModel::start_new_task(i64 num_classes, Rng& rng) {
  classifier_ = std::make_unique<Linear>(feature_dim(), num_classes, rng,
                                         /*bias=*/true, "classifier");
}

}  // namespace msh
