// Tests for the LUT decoder (the spatial tables of Fig 5.9).
#include "qec/lut_decoder.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/bits.h"

namespace qpf::qec {
namespace {

// Z-check masks of the SC17 (flag X errors).
constexpr std::array<std::uint16_t, 4> kZCheckMasks{
    0b000001001, 0b000110110, 0b011011000, 0b100100000};
// X-check masks (flag Z errors).
constexpr std::array<std::uint16_t, 4> kXCheckMasks{
    0b000011011, 0b000000110, 0b110110000, 0b011000000};

TEST(LutDecoderTest, SingleQubitSignatures) {
  const LutDecoder lut(kZCheckMasks);
  EXPECT_EQ(lut.signature(0), 0b0001u);  // D0 in Z0Z3 only
  EXPECT_EQ(lut.signature(3), 0b0101u);  // D3 in Z0Z3 and Z3Z4Z6Z7
  EXPECT_EQ(lut.signature(4), 0b0110u);  // D4 in Z1Z2Z4Z5 and Z3Z4Z6Z7
  EXPECT_EQ(lut.signature(8), 0b1000u);  // D8 in Z5Z8 only
}

TEST(LutDecoderTest, CleanSyndromeDecodesToNothing) {
  const LutDecoder lut(kZCheckMasks);
  EXPECT_TRUE(lut.decode(0).empty());
}

TEST(LutDecoderTest, SingleErrorsDecodeToSingleQubits) {
  const LutDecoder lut(kZCheckMasks);
  for (int q = 0; q < 9; ++q) {
    const auto& correction = lut.decode(lut.signature(q));
    ASSERT_EQ(correction.size(), 1u) << "qubit " << q;
    // The decoded qubit must have the same signature (may be a
    // degenerate partner like D1 vs D2 — both valid corrections).
    EXPECT_EQ(lut.signature(correction[0]), lut.signature(q));
  }
}

// The defining property: for every syndrome, the correction's combined
// signature reproduces the syndrome exactly, so applying it clears it.
class LutCoverage : public ::testing::TestWithParam<unsigned> {};

TEST_P(LutCoverage, CorrectionSignatureMatchesSyndrome) {
  const unsigned syndrome = GetParam();
  for (const auto& masks : {kZCheckMasks, kXCheckMasks}) {
    const LutDecoder lut(masks);
    EXPECT_EQ(lut.signature(lut.decode(syndrome)), syndrome);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSyndromes, LutCoverage,
                         ::testing::Range(0u, 16u));

TEST(LutDecoderTest, CorrectionsAreMinimumWeight) {
  const LutDecoder lut(kZCheckMasks);
  for (unsigned s = 0; s < 16; ++s) {
    const std::size_t got = lut.decode(s).size();
    // Brute force the true minimum weight.
    std::size_t best = 99;
    for (unsigned subset = 0; subset < (1u << 9); ++subset) {
      unsigned sig = 0;
      for (int q = 0; q < 9; ++q) {
        if (subset & (1u << q)) {
          sig ^= lut.signature(q);
        }
      }
      if (sig == s) {
        best = std::min<std::size_t>(
            best, static_cast<std::size_t>(qpf::popcount64(subset)));
      }
    }
    EXPECT_EQ(got, best) << "syndrome " << s;
  }
}

// Ties between minimum-weight corrections are part of the decoder's
// output, so they are pinned: each entry is the lexicographically first
// of the lightest subsets that fit the syndrome and the overlap rule.
TEST(LutDecoderTest, TiesBreakToTheLexicographicallyFirstSubset) {
  // The plain tables, then the state-injection tables: corrections
  // that commute with Z_L (D0 D4 D8) and with X_L (D2 D4 D6).
  const std::pair<std::array<std::uint16_t, 4>, std::uint16_t> cases[] = {
      {kZCheckMasks, 0},
      {kXCheckMasks, 0},
      {kZCheckMasks, 0b100010001},
      {kXCheckMasks, 0b001010100},
  };
  for (const auto& [masks, even] : cases) {
    const LutDecoder lut(masks, 9, even);
    for (unsigned s = 0; s < 16; ++s) {
      std::vector<int> best;
      bool found = false;
      for (unsigned subset = 0; subset < (1u << 9); ++subset) {
        std::vector<int> qubits;
        for (int q = 0; q < 9; ++q) {
          if (subset & (1u << q)) {
            qubits.push_back(q);
          }
        }
        if (lut.signature(qubits) != s ||
            qpf::popcount64(subset & even) % 2 != 0) {
          continue;
        }
        if (!found || qubits.size() < best.size() ||
            (qubits.size() == best.size() && qubits < best)) {
          best = qubits;
          found = true;
        }
      }
      ASSERT_TRUE(found);
      EXPECT_EQ(lut.decode(s), best) << "syndrome " << s << " even " << even;
    }
  }
}

TEST(LutDecoderTest, InconsistentMasksRejected) {
  // A check layout that cannot produce syndrome bit 3.
  const std::array<std::uint16_t, 4> broken{0b1, 0b10, 0b100, 0b0};
  EXPECT_THROW(LutDecoder{broken}, std::invalid_argument);
}

TEST(LutDecoderTest, BadArgumentsThrow) {
  const LutDecoder lut(kZCheckMasks);
  EXPECT_THROW((void)lut.decode(16), std::out_of_range);
  EXPECT_THROW((void)lut.signature(9), std::out_of_range);
  EXPECT_THROW((void)lut.signature(-1), std::out_of_range);
}

}  // namespace
}  // namespace qpf::qec
