// Full Rep-Net continual-learning model (paper §4, Fig 6): a fixed
// backbone main branch, a parallel tiny Rep-Net path of learnable modules,
// activation connectors exchanging intermediate feature maps between the
// two, and a shared per-task classifier.
//
// Dataflow per forward pass (S = number of stages):
//   a_0 = stem(x)
//   u_i = a_{i-1} + r_{i-1}           (activation connector; r_{-1} = 0)
//   a_i = stage_i(u_i)                (frozen backbone)
//   r_i = rep_i(u_i)                  (learnable Rep module)
//   logits = classifier(GAP(a_S + r_S))
// Backward mirrors this exactly; gradients flow *through* the frozen
// backbone (error propagation, eq. 1) but only Rep modules and the
// classifier accumulate parameter gradients.
#pragma once

#include "nn/linear.h"
#include "nn/pooling.h"
#include "repnet/backbone.h"
#include "repnet/rep_module.h"

namespace msh {

class RepNetModel {
 public:
  RepNetModel(const BackboneConfig& backbone_cfg, const RepNetConfig& rep_cfg,
              i64 num_classes, Rng& rng);

  /// Computes logits; caches state for backward when training.
  Tensor forward(const Tensor& x, bool training);
  /// Backpropagates from the logits gradient through both paths.
  void backward(const Tensor& grad_logits);

  /// Forward up to the pooled feature vector [B, feature_dim()] —
  /// everything except the classifier. Caches state for
  /// backward_features when training. forward() == classifier applied to
  /// forward_features().
  Tensor forward_features(const Tensor& x, bool training);
  /// Backpropagates from a feature-vector gradient [B, feature_dim()]
  /// through the Rep path and the (frozen) backbone — the software half
  /// of hardware-in-the-loop training, where the classifier head lives
  /// on SRAM PEs and hands its propagated error (eq. 1) back here.
  void backward_features(const Tensor& grad_features);

  Backbone& backbone() { return backbone_; }
  const Backbone& backbone_const() const { return backbone_; }
  i64 num_rep_modules() const { return static_cast<i64>(reps_.size()); }
  RepModule& rep_module(i64 i);
  Linear& classifier() { return *classifier_; }

  /// Parameters of the frozen main branch.
  std::vector<Param*> backbone_params() { return backbone_.params(); }
  /// Parameters updated during on-device learning: Rep path + classifier.
  std::vector<Param*> learnable_params();
  /// Rep-path parameters only (no classifier) — what the software side of
  /// hardware-in-the-loop training updates while the head trains in-PIM.
  std::vector<Param*> rep_params();
  /// Rep-path conv parameters only (the N:M-sparsified set).
  std::vector<Param*> rep_conv_params();

  /// Swaps in a freshly initialized classifier head for a new task.
  void start_new_task(i64 num_classes, Rng& rng);

  /// Copies every parameter value, N:M mask and BatchNorm running
  /// statistic from `other`, which must have the identical architecture
  /// (same configs and class count). Used to stand up a dedicated
  /// trainer model that mirrors a serving model bit-exactly without
  /// retraining: the optimizer then keeps the served sparsity pattern,
  /// so every exported image fits the served N:M deployments. Masks stay
  /// non-owning — whatever owns `other`'s masks must outlive this model's
  /// training.
  void copy_state_from(RepNetModel& other);

  i64 feature_dim() const { return backbone_.config().feature_channels(); }

 private:
  Backbone backbone_;
  std::vector<std::unique_ptr<RepModule>> reps_;
  GlobalAvgPool gap_;
  Flatten flatten_;
  std::unique_ptr<Linear> classifier_;
  Rng classifier_rng_;
};

}  // namespace msh
