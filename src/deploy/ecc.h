// Error-correcting codes for NVM-resident weight storage.
//
// Deployed INT8 weight words can be protected with a SEC-DED Hamming
// code — Hamming(12,8) plus an overall parity bit, 13 cells per 8-bit
// word — which corrects any single bit error and detects (without
// miscorrecting) any double. N:M index nibbles, too small to justify
// Hamming overhead, get a single even-parity bit (detect-only): a
// parity hit means the index must be re-fetched from the golden model.
//
// Word layout (codeword positions 1..12, position = binary index):
//   position:  1   2   3   4   5   6   7   8   9  10  11  12
//   role:      c0  c1  d0  c2  d1  d2  d3  c3  d4  d5  d6  d7
// Check bit c_p at position 2^p covers every position whose index has
// bit p set. The stored check word packs c0..c3 in bits 0..3 and the
// overall (even) parity over all 12 positions in bit 4 — five spare
// cells per array column group.
#pragma once

#include "common/types.h"

namespace msh {

/// Protection level for NVM-deployed weight arrays.
enum class EccMode : u8 {
  kNone = 0,    ///< raw codes, faults land directly on MACs
  kParity = 1,  ///< 1 parity bit/word: detect-only, repair via re-fetch
  kSecDed = 2,  ///< Hamming(12,8)+parity: correct 1, detect 2
};

const char* ecc_mode_name(EccMode mode);

/// Per-array scrub accounting.
struct EccStats {
  i64 words_checked = 0;
  i64 corrected = 0;                ///< single-bit errors repaired in place
  i64 detected_uncorrectable = 0;   ///< flagged but not repairable by code
  i64 silent = 0;                   ///< corruption the code missed or
                                    ///< miscorrected (known vs golden only)

  bool clean() const {
    return corrected == 0 && detected_uncorrectable == 0 && silent == 0;
  }
  EccStats& operator+=(const EccStats& other);
};

enum class SecDedOutcome : u8 {
  kClean = 0,            ///< syndrome zero, parity even
  kCorrectedSingle = 1,  ///< one bit repaired (data, check, or parity)
  kDetectedDouble = 2,   ///< even # of flips: detected, not corrected
};

/// Number of stored check cells per SEC-DED-protected byte (c0..c3 +
/// overall parity).
inline constexpr i32 kSecDedCheckBits = 5;

/// Encodes one data byte; returns the 5-bit check word.
u8 secded_encode(u8 data);

/// Decodes one (data, check) pair in place, correcting a single-bit
/// error anywhere in the 13-bit codeword. Double errors are detected
/// and left untouched. `check` must fit in kSecDedCheckBits bits.
SecDedOutcome secded_decode(u8& data, u8& check);

/// Even parity bit over the low `nbits` bits of `word`.
u8 parity_bit(u8 word, i32 nbits);

/// The check word stored beside weight byte `data` under `mode`:
/// secded_encode(data) for kSecDed, parity_bit(data, 8) for kParity, 0
/// for kNone (no check cells).
u8 weight_check_word(EccMode mode, u8 data);

/// Cells per weight check word under `mode`: kSecDedCheckBits, 1 or 0.
i32 weight_check_bits(EccMode mode);

}  // namespace msh
