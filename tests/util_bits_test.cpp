#include "util/bits.hpp"

#include <gtest/gtest.h>

namespace ppa::util {
namespace {

TEST(Bits, ValidWordBits) {
  EXPECT_FALSE(valid_word_bits(0));
  EXPECT_TRUE(valid_word_bits(1));
  EXPECT_TRUE(valid_word_bits(16));
  EXPECT_TRUE(valid_word_bits(32));
  EXPECT_FALSE(valid_word_bits(33));
  EXPECT_FALSE(valid_word_bits(-1));
}

TEST(Bits, LowMask) {
  EXPECT_EQ(low_mask(1), 0x1u);
  EXPECT_EQ(low_mask(4), 0xFu);
  EXPECT_EQ(low_mask(8), 0xFFu);
  EXPECT_EQ(low_mask(31), 0x7FFFFFFFu);
  EXPECT_EQ(low_mask(32), 0xFFFFFFFFu);
}

TEST(Bits, BitOf) {
  EXPECT_EQ(bit_of(0b1010, 0), 0u);
  EXPECT_EQ(bit_of(0b1010, 1), 1u);
  EXPECT_EQ(bit_of(0b1010, 2), 0u);
  EXPECT_EQ(bit_of(0b1010, 3), 1u);
  EXPECT_EQ(bit_of(0x80000000u, 31), 1u);
}

TEST(Bits, WithBit) {
  EXPECT_EQ(with_bit(0, 3, true), 0b1000u);
  EXPECT_EQ(with_bit(0b1111, 1, false), 0b1101u);
  EXPECT_EQ(with_bit(0b1000, 3, true), 0b1000u);  // idempotent
}

class CeilLog2Sweep : public ::testing::TestWithParam<int> {};

TEST_P(CeilLog2Sweep, InverseOfPow2) {
  const int k = GetParam();
  const std::uint64_t pow = std::uint64_t{1} << k;
  EXPECT_EQ(ceil_log2(pow), k);
  if (k > 0) {
    EXPECT_EQ(ceil_log2(pow - 1), (pow - 1 <= 1) ? 0 : k);
    EXPECT_EQ(ceil_log2(pow + 1), k + 1);
  }
  EXPECT_EQ(next_pow2(pow), pow);
  if (k > 1) {
    EXPECT_EQ(next_pow2(pow - 1), pow);
  }
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, CeilLog2Sweep,
                         ::testing::Values(0, 1, 2, 3, 5, 10, 20, 31, 40, 62));

TEST(Bits, CeilLog2SmallValues) {
  EXPECT_EQ(ceil_log2(1), 0);
  EXPECT_EQ(ceil_log2(2), 1);
  EXPECT_EQ(ceil_log2(3), 2);
  EXPECT_EQ(ceil_log2(4), 2);
  EXPECT_EQ(ceil_log2(5), 3);
}

TEST(Bits, BitWidthOf) {
  EXPECT_EQ(bit_width_of(0), 1);
  EXPECT_EQ(bit_width_of(1), 1);
  EXPECT_EQ(bit_width_of(2), 2);
  EXPECT_EQ(bit_width_of(255), 8);
  EXPECT_EQ(bit_width_of(256), 9);
}

TEST(Bits, RoundTripAllBitsOfAWord) {
  // Property: with_bit/bit_of are inverse on every position.
  for (int j = 0; j < 32; ++j) {
    const std::uint32_t x = with_bit(0, j, true);
    EXPECT_EQ(bit_of(x, j), 1u);
    EXPECT_EQ(with_bit(x, j, false), 0u);
  }
}

}  // namespace
}  // namespace ppa::util
