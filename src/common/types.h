// Fundamental scalar aliases and contract-checking macros used across the
// library. Contracts throw (rather than abort) so that tests can assert on
// misuse and simulator front-ends can surface configuration errors cleanly.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace msh {

using i8 = std::int8_t;
using u8 = std::uint8_t;
using i16 = std::int16_t;
using u16 = std::uint16_t;
using i32 = std::int32_t;
using u32 = std::uint32_t;
using i64 = std::int64_t;
using u64 = std::uint64_t;
using f32 = float;
using f64 = double;

/// Thrown when a precondition on a public API is violated.
class ContractError : public std::logic_error {
 public:
  explicit ContractError(const std::string& what) : std::logic_error(what) {}
};

/// Thrown when a simulation reaches an inconsistent internal state.
class SimulationError : public std::runtime_error {
 public:
  explicit SimulationError(const std::string& what)
      : std::runtime_error(what) {}
};

namespace detail {
/// Throws the ContractError of a failed MSH_REQUIRE / MSH_ENSURE. Out of
/// line, so a check inlines as a compare and a call: no translation unit
/// (the -mavx2 raw kernels included) defines its string building.
[[noreturn]] void contract_fail(const char* kind, const char* expr,
                                const char* file, int line);
}  // namespace detail

}  // namespace msh

/// Precondition check on public API arguments.
#define MSH_REQUIRE(expr)                                                \
  do {                                                                   \
    if (!(expr))                                                         \
      ::msh::detail::contract_fail("precondition", #expr, __FILE__,      \
                                   __LINE__);                            \
  } while (0)

/// Internal invariant check.
#define MSH_ENSURE(expr)                                                 \
  do {                                                                   \
    if (!(expr))                                                         \
      ::msh::detail::contract_fail("invariant", #expr, __FILE__,         \
                                   __LINE__);                            \
  } while (0)
