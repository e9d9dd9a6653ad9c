#include "mapping/quantized_nm.h"

namespace msh {

QuantizedNmMatrix QuantizedNmMatrix::from_packed(const NmPackedMatrix& packed,
                                                 const QuantParams& params) {
  QuantizedNmMatrix q;
  q.cfg_ = packed.config();
  q.dense_rows_ = packed.dense_rows();
  q.cols_ = packed.cols();
  q.packed_rows_ = packed.packed_rows();
  q.params_ = params;
  const size_t total = static_cast<size_t>(q.packed_rows_ * q.cols_);
  q.values_.resize(total);
  q.indices_.resize(total);
  q.valid_.resize(total);
  for (i64 p = 0; p < q.packed_rows_; ++p) {
    for (i64 c = 0; c < q.cols_; ++c) {
      const size_t s = static_cast<size_t>(p * q.cols_ + c);
      const f32 v = packed.value(p, c);
      q.valid_[s] = v != 0.0f;
      q.values_[s] =
          q.valid_[s] ? static_cast<i8>(params.quantize(v)) : i8{0};
      q.indices_[s] = static_cast<u8>(packed.index(p, c));
    }
  }
  return q;
}

QuantizedNmMatrix QuantizedNmMatrix::from_packed(
    const NmPackedMatrix& packed) {
  return from_packed(packed,
                     QuantParams::calibrate(packed.to_dense(), 8));
}

QuantizedNmMatrix QuantizedNmMatrix::from_packed_codes(
    const NmPackedMatrix& packed, f32 dequant_scale) {
  QuantParams identity;
  identity.scale = 1.0f;
  identity.qmin = -128;
  identity.qmax = 127;
  QuantizedNmMatrix q = from_packed(packed, identity);
  q.params_.scale = dequant_scale;
  return q;
}

QuantizedNmMatrix QuantizedNmMatrix::from_raw(NmConfig cfg, i64 dense_rows,
                                              i64 cols, f32 scale,
                                              std::vector<i8> values,
                                              std::vector<u8> indices,
                                              std::vector<u8> valid) {
  MSH_REQUIRE(cfg.valid());
  MSH_REQUIRE(dense_rows > 0 && cols > 0);
  MSH_REQUIRE(dense_rows % cfg.m == 0);
  MSH_REQUIRE(scale > 0.0f);
  QuantizedNmMatrix q;
  q.cfg_ = cfg;
  q.dense_rows_ = dense_rows;
  q.cols_ = cols;
  q.packed_rows_ = dense_rows / cfg.m * cfg.n;
  i64 slots = 0;
  MSH_REQUIRE(!__builtin_mul_overflow(q.packed_rows_, cols, &slots));
  const size_t total = static_cast<size_t>(slots);
  MSH_REQUIRE(values.size() == total);
  MSH_REQUIRE(indices.size() == total);
  MSH_REQUIRE(valid.size() == total);
  for (size_t i = 0; i < total; ++i) {
    MSH_REQUIRE(indices[i] < static_cast<u8>(cfg.m));
    MSH_REQUIRE(valid[i] <= 1);
  }
  q.params_.scale = scale;
  q.values_ = std::move(values);
  q.indices_ = std::move(indices);
  q.valid_ = std::move(valid);
  return q;
}

i8 QuantizedNmMatrix::value(i64 packed_row, i64 col) const {
  MSH_REQUIRE(packed_row >= 0 && packed_row < packed_rows_);
  MSH_REQUIRE(col >= 0 && col < cols_);
  return values_[static_cast<size_t>(packed_row * cols_ + col)];
}

u8 QuantizedNmMatrix::index(i64 packed_row, i64 col) const {
  MSH_REQUIRE(packed_row >= 0 && packed_row < packed_rows_);
  MSH_REQUIRE(col >= 0 && col < cols_);
  return indices_[static_cast<size_t>(packed_row * cols_ + col)];
}

bool QuantizedNmMatrix::valid(i64 packed_row, i64 col) const {
  MSH_REQUIRE(packed_row >= 0 && packed_row < packed_rows_);
  MSH_REQUIRE(col >= 0 && col < cols_);
  return valid_[static_cast<size_t>(packed_row * cols_ + col)] != 0;
}

std::vector<i32> QuantizedNmMatrix::reference_matvec(
    std::span<const i8> activations) const {
  MSH_REQUIRE(static_cast<i64>(activations.size()) >= dense_rows_);
  std::vector<i32> y(static_cast<size_t>(cols_), 0);
  for (i64 p = 0; p < packed_rows_; ++p) {
    const i64 group = p / cfg_.n;
    for (i64 c = 0; c < cols_; ++c) {
      const size_t s = static_cast<size_t>(p * cols_ + c);
      if (!valid_[s]) continue;
      const i64 dense_row = group * cfg_.m + indices_[s];
      y[static_cast<size_t>(c)] +=
          static_cast<i32>(values_[s]) *
          static_cast<i32>(activations[static_cast<size_t>(dense_row)]);
    }
  }
  return y;
}

std::vector<i8> QuantizedNmMatrix::to_dense_int8() const {
  std::vector<i8> dense(static_cast<size_t>(dense_rows_ * cols_), 0);
  for (i64 p = 0; p < packed_rows_; ++p) {
    const i64 group = p / cfg_.n;
    for (i64 c = 0; c < cols_; ++c) {
      const size_t s = static_cast<size_t>(p * cols_ + c);
      if (!valid_[s]) continue;
      const i64 dense_row = group * cfg_.m + indices_[s];
      dense[static_cast<size_t>(dense_row * cols_ + c)] = values_[s];
    }
  }
  return dense;
}

}  // namespace msh
