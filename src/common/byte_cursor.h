// Bounded little-endian reader over an in-memory blob, shared by the
// binary formats read back from disk (deployment images, learner
// checkpoints). Every read checks the bytes remaining first, so a short
// or crafted file fails with "<prefix>: truncated <what> in <context>",
// naming the field it ran out in: it never reads past the blob, never
// aliases as a CRC failure, and never turns a half-read length field into
// a giant allocation. Element counts built from file fields go through
// count(), which rejects a product that overflows or that the remaining
// bytes cannot back, before anything is allocated.
#pragma once

#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"

namespace msh {

class ByteCursor {
 public:
  /// `prefix` names the format in every error ("DeploymentImage").
  ByteCursor(const char* data, size_t size, std::string prefix,
             std::string context)
      : data_(data),
        size_(size),
        prefix_(std::move(prefix)),
        context_(std::move(context)) {}

  size_t remaining() const { return size_ - pos_; }

  template <typename T>
  T pod(const char* what) {
    T value{};
    bytes(&value, sizeof(T), what);
    return value;
  }

  void bytes(void* dst, size_t n, const char* what) {
    need(n, what);
    std::memcpy(dst, data_ + pos_, n);
    pos_ += n;
  }

  /// `count` elements of T. The count must come from count() or be
  /// small: count * sizeof(T) is bounds-checked, not overflow-checked.
  template <typename T>
  std::vector<T> vec(size_t count, const char* what) {
    need(count * sizeof(T), what);
    std::vector<T> out(count);
    std::memcpy(out.data(), data_ + pos_, count * sizeof(T));
    pos_ += count * sizeof(T);
    return out;
  }

  /// The product of `factors` (each >= 0) as an element count of
  /// `elem_bytes`-sized elements, once its bytes are known to fit in
  /// what remains. Throws SimulationError when the product overflows
  /// or exceeds the remaining bytes.
  size_t count(std::span<const i64> factors, size_t elem_bytes,
               const char* what) const {
    i64 n = 1;
    size_t bytes = 0;
    for (const i64 f : factors) {
      if (f < 0 || __builtin_mul_overflow(n, f, &n))
        fail(std::string("implausible ") + what + " size",
             " (element count overflows)");
    }
    if (__builtin_mul_overflow(static_cast<size_t>(n), elem_bytes, &bytes))
      fail(std::string("implausible ") + what + " size",
           " (byte count overflows)");
    need(bytes, what);
    return static_cast<size_t>(n);
  }

  /// Throws "<prefix>: <message> in <context><detail>".
  [[noreturn]] void fail(const std::string& message,
                         const std::string& detail = "") const {
    throw SimulationError(prefix_ + ": " + message + " in " + context_ +
                          detail);
  }

 private:
  void need(size_t n, const char* what) const {
    if (remaining() < n) {
      fail(std::string("truncated ") + what,
           " (short read: need " + std::to_string(n) + " byte(s), " +
               std::to_string(remaining()) + " left)");
    }
  }

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
  std::string prefix_;
  std::string context_;
};

}  // namespace msh
