#include "deploy/ecc.h"

#include <bit>

#include "common/types.h"

namespace msh {
namespace {

/// Codeword positions of data bits d0..d7 (non-power-of-two slots).
constexpr i32 kDataPos[8] = {3, 5, 6, 7, 9, 10, 11, 12};

/// Scatters a data byte into its codeword positions (checks left zero).
u16 expand(u8 data) {
  u16 codeword = 0;
  for (i32 i = 0; i < 8; ++i) {
    if ((data >> i) & 1u) codeword |= static_cast<u16>(1u << kDataPos[i]);
  }
  return codeword;
}

/// Hamming check nibble c0..c3 for the data bits of `codeword`: c_p is
/// the parity over every position whose index has bit p set, which is
/// exactly the value that makes the covered group even once stored.
u8 hamming_checks(u16 codeword) {
  u8 checks = 0;
  for (i32 p = 0; p < 4; ++p) {
    u32 parity = 0;
    for (i32 pos = 1; pos <= 12; ++pos) {
      if ((pos & (1 << p)) && ((codeword >> pos) & 1u)) parity ^= 1u;
    }
    checks |= static_cast<u8>(parity << p);
  }
  return checks;
}

}  // namespace

const char* ecc_mode_name(EccMode mode) {
  switch (mode) {
    case EccMode::kNone: return "none";
    case EccMode::kParity: return "parity";
    case EccMode::kSecDed: return "secded";
  }
  return "?";
}

EccStats& EccStats::operator+=(const EccStats& other) {
  words_checked += other.words_checked;
  corrected += other.corrected;
  detected_uncorrectable += other.detected_uncorrectable;
  silent += other.silent;
  return *this;
}

u8 secded_encode(u8 data) {
  const u8 checks = hamming_checks(expand(data));
  u8 stored = checks;
  const i32 ones = std::popcount(data) + std::popcount(checks);
  if (ones & 1) stored |= 0x10;  // overall parity -> even over 13 cells
  return stored;
}

SecDedOutcome secded_decode(u8& data, u8& check) {
  MSH_REQUIRE((check & ~((1u << kSecDedCheckBits) - 1u)) == 0);
  const u8 stored_checks = check & 0x0F;
  const u8 stored_parity = (check >> 4) & 1u;
  const u8 syndrome =
      static_cast<u8>(stored_checks ^ hamming_checks(expand(data)));
  const i32 ones =
      std::popcount(data) + std::popcount(stored_checks) + stored_parity;
  const bool parity_odd = (ones & 1) != 0;

  if (syndrome == 0 && !parity_odd) return SecDedOutcome::kClean;
  if (!parity_odd) {
    // Nonzero syndrome with even overall parity: an even number of
    // flips. Detect, never miscorrect.
    return SecDedOutcome::kDetectedDouble;
  }
  // Odd parity: single error (or an odd-count burst that aliases to
  // one — indistinguishable by construction).
  if (syndrome == 0) {
    check ^= 0x10;  // the overall-parity cell itself flipped
    return SecDedOutcome::kCorrectedSingle;
  }
  if (std::has_single_bit(syndrome)) {
    // Error at a check position 2^p: repair stored check bit p.
    check ^= static_cast<u8>(syndrome);
    return SecDedOutcome::kCorrectedSingle;
  }
  for (i32 i = 0; i < 8; ++i) {
    if (kDataPos[i] == syndrome) {
      data ^= static_cast<u8>(1u << i);
      return SecDedOutcome::kCorrectedSingle;
    }
  }
  // Syndrome names a position outside the 12-cell codeword (13..15):
  // only reachable with >= 3 flips. Flag, don't touch.
  return SecDedOutcome::kDetectedDouble;
}

u8 parity_bit(u8 word, i32 nbits) {
  MSH_REQUIRE(nbits >= 1 && nbits <= 8);
  const u8 mask = static_cast<u8>((1u << nbits) - 1u);
  return static_cast<u8>(std::popcount(static_cast<u8>(word & mask)) & 1);
}

u8 weight_check_word(EccMode mode, u8 data) {
  switch (mode) {
    case EccMode::kNone: return 0;
    case EccMode::kParity: return parity_bit(data, 8);
    case EccMode::kSecDed: return secded_encode(data);
  }
  return 0;
}

i32 weight_check_bits(EccMode mode) {
  switch (mode) {
    case EccMode::kNone: return 0;
    case EccMode::kParity: return 1;
    case EccMode::kSecDed: return kSecDedCheckBits;
  }
  return 0;
}

}  // namespace msh
