// Dense float tensor with row-major storage. This is the numeric substrate
// for the algorithm stack (training, pruning, quantization); the hardware
// simulators consume its buffers through spans.
#pragma once

#include <memory>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "tensor/shape.h"

namespace msh {

/// std::allocator whose value-less construct default-initializes, so a
/// vector sized through it leaves its elements unwritten.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}
  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(Shape shape, f32 fill = 0.0f);

  /// A tensor whose elements hold no value yet, for an output every
  /// element of which is written next (a conv's epilogue, a pooled
  /// mean): it skips the fill the other constructors make.
  static Tensor uninitialized(Shape shape);

  static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  static Tensor full(Shape shape, f32 value) {
    return Tensor(std::move(shape), value);
  }
  static Tensor from_data(Shape shape, std::vector<f32> data);
  /// I.i.d. uniform in [lo, hi).
  static Tensor uniform(Shape shape, Rng& rng, f32 lo = 0.0f, f32 hi = 1.0f);
  /// I.i.d. normal(mean, stddev).
  static Tensor randn(Shape shape, Rng& rng, f32 mean = 0.0f,
                      f32 stddev = 1.0f);

  const Shape& shape() const { return shape_; }
  i64 numel() const { return static_cast<i64>(data_.size()); }
  bool empty() const { return data_.empty(); }

  f32* data() { return data_.data(); }
  const f32* data() const { return data_.data(); }
  std::span<f32> span() { return data_; }
  std::span<const f32> span() const { return data_; }

  f32& at(std::initializer_list<i64> index);
  f32 at(std::initializer_list<i64> index) const;
  // Inline: the periphery's per-element loops run through these.
  f32& operator[](i64 flat) {
    MSH_REQUIRE(flat >= 0 && flat < numel());
    return data_[static_cast<size_t>(flat)];
  }
  f32 operator[](i64 flat) const {
    MSH_REQUIRE(flat >= 0 && flat < numel());
    return data_[static_cast<size_t>(flat)];
  }

  /// Reinterprets as a new shape with the same element count.
  Tensor reshaped(Shape new_shape) const;
  /// Matrix transpose; requires rank 2.
  Tensor transposed() const;

  void fill(f32 value);
  Tensor& operator+=(const Tensor& o);
  Tensor& operator-=(const Tensor& o);
  Tensor& operator*=(f32 s);

  f32 min() const;
  f32 max() const;
  f32 abs_max() const;
  f64 sum() const;
  f64 mean() const;
  /// Squared L2 norm.
  f64 sq_norm() const;

 private:
  Shape shape_;
  std::vector<f32, DefaultInitAllocator<f32>> data_;
};

/// Max elementwise |a - b|; shapes must match.
f32 max_abs_diff(const Tensor& a, const Tensor& b);
/// True if all elements within atol + rtol*|b|.
bool allclose(const Tensor& a, const Tensor& b, f32 rtol = 1e-5f,
              f32 atol = 1e-6f);

}  // namespace msh
