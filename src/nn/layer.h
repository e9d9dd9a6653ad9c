// Layer abstraction with explicit forward/backward, mirroring the paper's
// §4 backpropagation equations:
//   error propagation  e^{l-1} = (W^l)^T e^l        (eq. 1)
//   gradient           g^l     = a^l (e^l)^T        (eq. 2)
//   weight update      W_new   = W_old - eta g^l    (eq. 3)
// Each layer caches what its backward pass needs during forward.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sparse/nm_mask.h"
#include "tensor/tensor.h"

namespace msh {

/// A trainable parameter: value, accumulated gradient, and an optional
/// fixed N:M mask that the optimizer must preserve (for sparse
/// fine-tuning, the pruned positions stay zero).
struct Param {
  std::string name;
  Tensor value;
  Tensor grad;
  const NmMask* mask = nullptr;  ///< non-owning; null = dense
  bool trainable = true;

  explicit Param(std::string n, Tensor v)
      : name(std::move(n)), value(std::move(v)), grad(value.shape()) {}

  void zero_grad() { grad.fill(0.0f); }
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes outputs; when `training` is true the layer caches
  /// intermediate state for backward and updates training-time statistics.
  virtual Tensor forward(const Tensor& x, bool training) = 0;

  /// Propagates gradients; accumulates into parameter .grad fields and
  /// returns the gradient w.r.t. the layer input. Must be called after a
  /// training-mode forward.
  virtual Tensor backward(const Tensor& grad_out) = 0;

  /// Trainable parameters (may be empty).
  virtual std::vector<Param*> params() { return {}; }

  virtual std::string name() const = 0;
};

using LayerPtr = std::unique_ptr<Layer>;

/// Total parameter element count of a layer set.
inline i64 param_count(const std::vector<Param*>& params) {
  i64 n = 0;
  for (const Param* p : params) n += p->value.numel();
  return n;
}

}  // namespace msh
