// Tests for the distance-d rotated surface code: layout invariants,
// matching decoder, and tableau integration.  The d = 3 layout against
// the thesis is in test_sc17.cpp, window decoding in test_ninja_star.cpp.
#include "qec/surface_code.h"

#include <gtest/gtest.h>

#include "circuit/error.h"

#include <algorithm>
#include <iterator>
#include <random>
#include "seed_support.h"
#include <set>

#include "stabilizer/tableau.h"

namespace qpf::qec {
namespace {

class SurfaceCodeLayoutTest : public ::testing::TestWithParam<int> {};

TEST_P(SurfaceCodeLayoutTest, CountsMatchFormulae) {
  const int d = GetParam();
  const SurfaceCodeLayout layout(d);
  EXPECT_EQ(layout.distance(), d);
  EXPECT_EQ(layout.num_data(), static_cast<std::size_t>(d * d));
  EXPECT_EQ(layout.num_checks(), static_cast<std::size_t>(d * d - 1));
  EXPECT_EQ(layout.num_qubits(), static_cast<std::size_t>(2 * d * d - 1));
  EXPECT_EQ(layout.checks_of(CheckType::kX).size(),
            layout.checks_of(CheckType::kZ).size());
}

TEST_P(SurfaceCodeLayoutTest, ChecksCommutePairwise) {
  const SurfaceCodeLayout layout(GetParam());
  for (const SurfaceCheck& a : layout.checks()) {
    for (const SurfaceCheck& b : layout.checks()) {
      if (a.type == b.type) {
        continue;  // same-basis checks trivially commute
      }
      std::size_t overlap = 0;
      for (int q : a.support) {
        overlap += std::count(b.support.begin(), b.support.end(), q);
      }
      EXPECT_EQ(overlap % 2, 0u)
          << "anticommuting checks at ancillas " << a.ancilla << ","
          << b.ancilla;
    }
  }
}

TEST_P(SurfaceCodeLayoutTest, CnotScheduleIsConflictFree) {
  const SurfaceCodeLayout layout(GetParam());
  for (int slot = 0; slot < 4; ++slot) {
    std::set<int> used;
    for (const SurfaceCheck& check : layout.checks()) {
      const int q = check.data[static_cast<std::size_t>(slot)];
      if (q >= 0) {
        EXPECT_TRUE(used.insert(q).second)
            << "slot " << slot << " data " << q;
      }
    }
  }
}

TEST_P(SurfaceCodeLayoutTest, DiagonalLogicalsCommuteWithChecks) {
  const int d = GetParam();
  const SurfaceCodeLayout layout(d);
  for (Orientation o : {Orientation::kNormal, Orientation::kRotated}) {
    const std::vector<int>& zl = layout.logical_z_data(o);
    const std::vector<int>& xl = layout.logical_x_data(o);
    ASSERT_EQ(zl.size(), static_cast<std::size_t>(d));
    ASSERT_EQ(xl.size(), static_cast<std::size_t>(d));
    for (const SurfaceCheck& check : layout.checks()) {
      const auto overlap = [&](const std::vector<int>& chain) {
        std::size_t n = 0;
        for (int q : chain) {
          n += std::count(check.support.begin(), check.support.end(), q);
        }
        return n;
      };
      // Z_L must commute with the checks measuring X this orientation,
      // and X_L with those measuring Z.
      if (check.effective_type(o) == CheckType::kX) {
        EXPECT_EQ(overlap(zl) % 2, 0u) << "ancilla " << check.ancilla;
      } else {
        EXPECT_EQ(overlap(xl) % 2, 0u) << "ancilla " << check.ancilla;
      }
    }
    // X_L and Z_L anticommute: the diagonals share the centre only.
    std::vector<int> shared;
    std::set_intersection(zl.begin(), zl.end(), xl.begin(), xl.end(),
                          std::back_inserter(shared));
    EXPECT_EQ(shared, (std::vector<int>{(d * d - 1) / 2}));
  }
  EXPECT_EQ(layout.logical_z_data(Orientation::kNormal).front(), 0);
  EXPECT_EQ(layout.logical_x_data(Orientation::kNormal).front(), d - 1);
}

TEST_P(SurfaceCodeLayoutTest, ChecksOrderedByLowestDataQubit) {
  const SurfaceCodeLayout layout(GetParam());
  for (CheckType type : {CheckType::kX, CheckType::kZ}) {
    const std::vector<int>& group = layout.checks_of(type);
    for (std::size_t g = 0; g + 1 < group.size(); ++g) {
      // Strictly ascending: the keys are unique.
      EXPECT_LT(layout.checks()[static_cast<std::size_t>(group[g])]
                    .support.front(),
                layout.checks()[static_cast<std::size_t>(group[g + 1])]
                    .support.front());
    }
  }
  for (std::size_t k = 0; k < layout.num_checks(); ++k) {
    EXPECT_EQ(layout.checks()[k].ancilla, static_cast<int>(k));
  }
}

TEST_P(SurfaceCodeLayoutTest, RotatedPartnerIsAQuarterTurn) {
  const int d = GetParam();
  const SurfaceCodeLayout layout(d);
  std::set<int> image;
  for (int q = 0; q < d * d; ++q) {
    int p = q;
    for (int turn = 0; turn < 4; ++turn) {
      p = layout.rotated_partner(p);
    }
    EXPECT_EQ(p, q);
    image.insert(layout.rotated_partner(q));
  }
  EXPECT_EQ(image.size(), static_cast<std::size_t>(d * d));
  // The quarter turn maps each logical chain onto the other.
  std::vector<int> turned;
  for (int q : layout.logical_x_data()) {
    turned.push_back(layout.rotated_partner(q));
  }
  std::sort(turned.begin(), turned.end());
  EXPECT_EQ(turned, layout.logical_z_data());
}

TEST_P(SurfaceCodeLayoutTest, EsmStructureGeneralizesTable58) {
  const SurfaceCodeLayout layout(GetParam());
  const Circuit esm = layout.esm_circuit(0);
  EXPECT_EQ(esm.num_slots(), SurfaceCodeLayout::kEsmSlots);
  EXPECT_EQ(esm.count(GateType::kPrepZ), layout.num_checks());
  EXPECT_EQ(esm.count(GateType::kMeasureZ), layout.num_checks());
  EXPECT_EQ(esm.count(GateType::kH),
            2 * layout.checks_of(CheckType::kX).size());
  std::size_t expected_cnots = 0;
  for (const SurfaceCheck& check : layout.checks()) {
    expected_cnots += check.support.size();
  }
  EXPECT_EQ(esm.count(GateType::kCnot), expected_cnots);
}

INSTANTIATE_TEST_SUITE_P(Distances, SurfaceCodeLayoutTest,
                         ::testing::Values(3, 5, 7, 9));

TEST(SurfaceCodeLayoutTest, InvalidDistanceRejected) {
  EXPECT_THROW(SurfaceCodeLayout{2}, StackConfigError);
  EXPECT_THROW(SurfaceCodeLayout{4}, StackConfigError);
  EXPECT_THROW(SurfaceCodeLayout{1}, StackConfigError);
}

TEST(SurfaceCodeLayoutTest, RectangleHasNoDiagonalLogicals) {
  const SurfaceCodeLayout layout(3, 7);
  EXPECT_THROW((void)layout.logical_x_data(), std::logic_error);
  EXPECT_THROW((void)layout.logical_z_data(), std::logic_error);
  EXPECT_THROW((void)layout.rotated_partner(0), std::out_of_range);
}

// --- Matching decoder --------------------------------------------------

class MatchingDecoderTest : public ::testing::TestWithParam<int> {};

TEST_P(MatchingDecoderTest, SingleErrorsAreDecodedExactly) {
  const SurfaceCodeLayout layout(GetParam());
  for (CheckType basis : {CheckType::kX, CheckType::kZ}) {
    const MatchingDecoder decoder(layout, basis);
    for (std::size_t q = 0; q < layout.num_data(); ++q) {
      const std::vector<int> defects =
          decoder.signature({static_cast<int>(q)});
      const std::vector<int> correction = decoder.decode(defects);
      // The correction must reproduce the same syndrome (clearing it)
      // and be minimum weight (a single qubit suffices).
      EXPECT_EQ(decoder.signature(correction), defects);
      EXPECT_EQ(correction.size(), 1u) << "data " << q;
    }
  }
}

TEST_P(MatchingDecoderTest, RandomErrorSetsAlwaysCleared) {
  const SurfaceCodeLayout layout(GetParam());
  const std::uint64_t seed = qpf::test::test_seed(11);
  QPF_ANNOUNCE_SEED(seed);
  std::mt19937_64 rng(seed);
  for (CheckType basis : {CheckType::kX, CheckType::kZ}) {
    const MatchingDecoder decoder(layout, basis);
    for (int trial = 0; trial < 50; ++trial) {
      std::vector<int> errors;
      for (std::size_t q = 0; q < layout.num_data(); ++q) {
        if (rng() % 8 == 0) {
          errors.push_back(static_cast<int>(q));
        }
      }
      const std::vector<int> defects = decoder.signature(errors);
      const std::vector<int> correction = decoder.decode(defects);
      EXPECT_EQ(decoder.signature(correction), defects);
      // The matching never uses more qubits than the actual error.
      EXPECT_LE(correction.size(), std::max<std::size_t>(errors.size(), 1));
    }
  }
}

TEST_P(MatchingDecoderTest, CorrectionsNeverExceedDistanceForSingleDefectPair) {
  const SurfaceCodeLayout layout(GetParam());
  const MatchingDecoder decoder(layout, CheckType::kZ);
  const std::size_t group = layout.checks_of(CheckType::kZ).size();
  for (std::size_t a = 0; a < group; ++a) {
    for (std::size_t b = a + 1; b < group; ++b) {
      const auto correction =
          decoder.decode({static_cast<int>(a), static_cast<int>(b)});
      EXPECT_LE(correction.size(),
                static_cast<std::size_t>(2 * layout.distance()));
    }
  }
}

TEST(MatchingDecoderTest, OutOfRangeDefectRejected) {
  const SurfaceCodeLayout layout(3);
  const MatchingDecoder decoder(layout, CheckType::kZ);
  EXPECT_THROW((void)decoder.decode({99}), std::out_of_range);
}

INSTANTIATE_TEST_SUITE_P(Distances, MatchingDecoderTest,
                         ::testing::Values(3, 5, 7));

// --- Tableau integration -------------------------------------------------

TEST(SurfaceCodeTableauTest, EsmProjectsIntoCheckEigenstates) {
  for (int d : {3, 5}) {
    const SurfaceCodeLayout layout(d);
    stab::Tableau t(layout.num_qubits(), 7);
    t.execute(layout.esm_circuit(0));
    const auto results = t.take_measurements();
    ASSERT_EQ(results.size(), layout.num_checks());
    for (std::size_t k = 0; k < layout.num_checks(); ++k) {
      const SurfaceCheck& check = layout.checks()[k];
      stab::PauliString p(layout.num_qubits());
      for (int q : check.support) {
        p.set_pauli(static_cast<std::size_t>(q),
                    check.type == CheckType::kX ? stab::Pauli::kX
                                                : stab::Pauli::kZ);
      }
      EXPECT_EQ(t.expectation(p), results[k].sign()) << "d=" << d << " k=" << k;
    }
  }
}

}  // namespace
}  // namespace qpf::qec
