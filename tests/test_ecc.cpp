// SEC-DED Hamming(12,8)+parity over INT8 weight words: exhaustive
// single-error correction and double-error detection over the full
// 13-cell codeword, for every possible data byte.
#include <gtest/gtest.h>

#include "deploy/ecc.h"

namespace msh {
namespace {

constexpr i32 kCodewordBits = 8 + kSecDedCheckBits;  // data cells + check cells

/// Flips stored bit `bit` of the (data, check) pair: bits 0..7 live in
/// the data byte, 8..12 in the check word.
void flip(u8& data, u8& check, i32 bit) {
  if (bit < 8) {
    data ^= static_cast<u8>(1u << bit);
  } else {
    check ^= static_cast<u8>(1u << (bit - 8));
  }
}

TEST(SecDed, RoundTripCleanForEveryByte) {
  for (i32 value = 0; value < 256; ++value) {
    u8 data = static_cast<u8>(value);
    u8 check = secded_encode(data);
    EXPECT_EQ(secded_decode(data, check), SecDedOutcome::kClean);
    EXPECT_EQ(data, static_cast<u8>(value));
    EXPECT_EQ(check, secded_encode(static_cast<u8>(value)));
  }
}

TEST(SecDed, EverySingleBitErrorCorrected) {
  for (i32 value = 0; value < 256; ++value) {
    const u8 golden_data = static_cast<u8>(value);
    const u8 golden_check = secded_encode(golden_data);
    for (i32 bit = 0; bit < kCodewordBits; ++bit) {
      u8 data = golden_data;
      u8 check = golden_check;
      flip(data, check, bit);
      EXPECT_EQ(secded_decode(data, check), SecDedOutcome::kCorrectedSingle)
          << "byte " << value << " bit " << bit;
      EXPECT_EQ(data, golden_data) << "byte " << value << " bit " << bit;
      EXPECT_EQ(check, golden_check) << "byte " << value << " bit " << bit;
    }
  }
}

TEST(SecDed, EveryDoubleBitErrorDetectedNotCorrected) {
  for (i32 value = 0; value < 256; ++value) {
    const u8 golden_data = static_cast<u8>(value);
    const u8 golden_check = secded_encode(golden_data);
    for (i32 a = 0; a < kCodewordBits; ++a) {
      for (i32 b = a + 1; b < kCodewordBits; ++b) {
        u8 data = golden_data;
        u8 check = golden_check;
        flip(data, check, a);
        flip(data, check, b);
        const u8 corrupt_data = data;
        const u8 corrupt_check = check;
        EXPECT_EQ(secded_decode(data, check), SecDedOutcome::kDetectedDouble)
            << "byte " << value << " bits " << a << "," << b;
        // Detected means untouched: never miscorrect a double.
        EXPECT_EQ(data, corrupt_data);
        EXPECT_EQ(check, corrupt_check);
      }
    }
  }
}

TEST(SecDed, CheckWordFitsSpareCells) {
  for (i32 value = 0; value < 256; ++value) {
    const u8 check = secded_encode(static_cast<u8>(value));
    EXPECT_EQ(check >> kSecDedCheckBits, 0);
  }
  u8 data = 0;
  u8 check = 1u << kSecDedCheckBits;  // a sixth cell does not exist
  EXPECT_THROW(secded_decode(data, check), ContractError);
}

TEST(ParityBit, DetectsOddFlipsOnly) {
  EXPECT_EQ(parity_bit(0b0000, 4), 0);
  EXPECT_EQ(parity_bit(0b0100, 4), 1);
  EXPECT_EQ(parity_bit(0b0110, 4), 0);  // double flip: parity is blind
  // Only the low nbits participate (the word has no cells above them).
  EXPECT_EQ(parity_bit(0b1000'0011, 2), 0);
  EXPECT_EQ(parity_bit(0b1000'0011, 8), 1);
  EXPECT_THROW(parity_bit(0, 0), ContractError);
}

TEST(EccStats, AccumulateAndClean) {
  EccStats a;
  EXPECT_TRUE(a.clean());
  a.words_checked = 10;
  EXPECT_TRUE(a.clean());  // checked-but-pristine is clean
  EccStats b;
  b.words_checked = 5;
  b.corrected = 2;
  b.detected_uncorrectable = 1;
  b.silent = 3;
  a += b;
  EXPECT_EQ(a.words_checked, 15);
  EXPECT_EQ(a.corrected, 2);
  EXPECT_EQ(a.detected_uncorrectable, 1);
  EXPECT_EQ(a.silent, 3);
  EXPECT_FALSE(a.clean());
}

TEST(EccMode, WeightCheckWordForEveryByte) {
  EXPECT_EQ(weight_check_bits(EccMode::kNone), 0);
  EXPECT_EQ(weight_check_bits(EccMode::kParity), 1);
  EXPECT_EQ(weight_check_bits(EccMode::kSecDed), kSecDedCheckBits);
  for (i32 value = 0; value < 256; ++value) {
    const u8 data = static_cast<u8>(value);
    EXPECT_EQ(weight_check_word(EccMode::kNone, data), 0);
    EXPECT_EQ(weight_check_word(EccMode::kParity, data), parity_bit(data, 8));
    EXPECT_EQ(weight_check_word(EccMode::kSecDed, data), secded_encode(data));
    for (const EccMode mode : {EccMode::kParity, EccMode::kSecDed}) {
      EXPECT_EQ(weight_check_word(mode, data) >> weight_check_bits(mode), 0)
          << ecc_mode_name(mode) << " word of " << value;
    }
  }
}

TEST(EccMode, Names) {
  EXPECT_STREQ(ecc_mode_name(EccMode::kNone), "none");
  EXPECT_STREQ(ecc_mode_name(EccMode::kParity), "parity");
  EXPECT_STREQ(ecc_mode_name(EccMode::kSecDed), "secded");
}

}  // namespace
}  // namespace msh
