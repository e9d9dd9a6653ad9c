#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>

namespace msh {

Tensor::Tensor(Shape shape, f32 fill)
    : shape_(std::move(shape)),
      data_(static_cast<size_t>(shape_.numel()), fill) {}

Tensor Tensor::uninitialized(Shape shape) {
  Tensor t;
  t.shape_ = std::move(shape);
  t.data_.resize(static_cast<size_t>(t.shape_.numel()));
  return t;
}

Tensor Tensor::from_data(Shape shape, std::vector<f32> data) {
  MSH_REQUIRE(shape.numel() == static_cast<i64>(data.size()));
  Tensor t;
  t.shape_ = std::move(shape);
  t.data_.assign(data.begin(), data.end());
  return t;
}

Tensor Tensor::uniform(Shape shape, Rng& rng, f32 lo, f32 hi) {
  Tensor t(std::move(shape));
  for (f32& v : t.data_) v = static_cast<f32>(rng.uniform(lo, hi));
  return t;
}

Tensor Tensor::randn(Shape shape, Rng& rng, f32 mean, f32 stddev) {
  Tensor t(std::move(shape));
  for (f32& v : t.data_) v = static_cast<f32>(rng.gaussian(mean, stddev));
  return t;
}

f32& Tensor::at(std::initializer_list<i64> index) {
  return data_[static_cast<size_t>(
      shape_.offset(std::vector<i64>(index)))];
}

f32 Tensor::at(std::initializer_list<i64> index) const {
  return data_[static_cast<size_t>(
      shape_.offset(std::vector<i64>(index)))];
}

Tensor Tensor::reshaped(Shape new_shape) const {
  MSH_REQUIRE(new_shape.numel() == numel());
  Tensor t;
  t.shape_ = std::move(new_shape);
  t.data_ = data_;
  return t;
}

Tensor Tensor::transposed() const {
  MSH_REQUIRE(shape_.rank() == 2);
  const i64 rows = shape_[0], cols = shape_[1];
  Tensor out(Shape{cols, rows});
  for (i64 r = 0; r < rows; ++r)
    for (i64 c = 0; c < cols; ++c)
      out.data_[static_cast<size_t>(c * rows + r)] =
          data_[static_cast<size_t>(r * cols + c)];
  return out;
}

void Tensor::fill(f32 value) { std::fill(data_.begin(), data_.end(), value); }

Tensor& Tensor::operator+=(const Tensor& o) {
  MSH_REQUIRE(shape_ == o.shape_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& o) {
  MSH_REQUIRE(shape_ == o.shape_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] -= o.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(f32 s) {
  for (f32& v : data_) v *= s;
  return *this;
}

f32 Tensor::min() const {
  MSH_REQUIRE(!data_.empty());
  return *std::min_element(data_.begin(), data_.end());
}

f32 Tensor::max() const {
  MSH_REQUIRE(!data_.empty());
  return *std::max_element(data_.begin(), data_.end());
}

f32 Tensor::abs_max() const {
  f32 m = 0.0f;
  for (f32 v : data_) m = std::max(m, std::fabs(v));
  return m;
}

f64 Tensor::sum() const {
  f64 s = 0.0;
  for (f32 v : data_) s += v;
  return s;
}

f64 Tensor::mean() const {
  MSH_REQUIRE(!data_.empty());
  return sum() / static_cast<f64>(data_.size());
}

f64 Tensor::sq_norm() const {
  f64 s = 0.0;
  for (f32 v : data_) s += static_cast<f64>(v) * v;
  return s;
}

f32 max_abs_diff(const Tensor& a, const Tensor& b) {
  MSH_REQUIRE(a.shape() == b.shape());
  f32 m = 0.0f;
  for (i64 i = 0; i < a.numel(); ++i)
    m = std::max(m, std::fabs(a[i] - b[i]));
  return m;
}

bool allclose(const Tensor& a, const Tensor& b, f32 rtol, f32 atol) {
  if (a.shape() != b.shape()) return false;
  for (i64 i = 0; i < a.numel(); ++i) {
    if (std::fabs(a[i] - b[i]) > atol + rtol * std::fabs(b[i])) return false;
  }
  return true;
}

}  // namespace msh
