// Tests for the NinjaStar run-time model: properties (Tables 5.2 / 5.3),
// logical-operation conversion (Table 5.1) and window decoding.
#include "qec/ninja_star.h"

#include <gtest/gtest.h>

#include <set>

namespace qpf::qec {
namespace {

class NinjaStarTest : public ::testing::Test {
 protected:
  Sc17Layout layout_;
  NinjaStar star_{0, &layout_};
};

TEST_F(NinjaStarTest, InitialProperties) {
  EXPECT_EQ(star_.orientation(), Orientation::kNormal);
  EXPECT_EQ(star_.dance_mode(), DanceMode::kZOnly);
  EXPECT_EQ(star_.state(), StateValue::kUnknown);
}

TEST_F(NinjaStarTest, ResetSetsTable53Properties) {
  star_.on_logical_h();
  star_.on_reset();
  EXPECT_EQ(star_.orientation(), Orientation::kNormal);
  EXPECT_EQ(star_.dance_mode(), DanceMode::kAll);
  EXPECT_EQ(star_.state(), StateValue::kZero);
}

TEST_F(NinjaStarTest, LogicalXTogglesState) {
  star_.on_reset();
  star_.on_logical_x();
  EXPECT_EQ(star_.state(), StateValue::kOne);
  star_.on_logical_x();
  EXPECT_EQ(star_.state(), StateValue::kZero);
}

TEST_F(NinjaStarTest, LogicalZKeepsState) {
  star_.on_reset();
  star_.on_logical_z();
  EXPECT_EQ(star_.state(), StateValue::kZero);
}

TEST_F(NinjaStarTest, HadamardRotatesLattice) {
  star_.on_reset();
  star_.on_logical_h();
  EXPECT_EQ(star_.orientation(), Orientation::kRotated);
  EXPECT_EQ(star_.state(), StateValue::kUnknown);
  star_.on_logical_h();
  EXPECT_EQ(star_.orientation(), Orientation::kNormal);
}

TEST_F(NinjaStarTest, MeasurementSetsDanceModeAndState) {
  star_.on_reset();
  star_.on_measured(-1);
  EXPECT_EQ(star_.dance_mode(), DanceMode::kZOnly);
  EXPECT_EQ(star_.state(), StateValue::kOne);
  star_.on_measured(+1);
  EXPECT_EQ(star_.state(), StateValue::kZero);
}

TEST_F(NinjaStarTest, CnotPropertyUpdate) {
  NinjaStar target{17, &layout_};
  star_.on_reset();
  target.on_reset();
  star_.on_logical_x();  // control = 1
  NinjaStar::on_logical_cnot(star_, target);
  EXPECT_EQ(target.state(), StateValue::kOne);
  star_.on_logical_h();  // control unknown
  NinjaStar::on_logical_cnot(star_, target);
  EXPECT_EQ(target.state(), StateValue::kUnknown);
}

TEST_F(NinjaStarTest, LogicalXCircuitFollowsOrientation) {
  const Circuit normal = star_.logical_x_circuit();
  EXPECT_EQ(normal.num_operations(), 3u);
  std::set<Qubit> qubits;
  for (const Operation& op : normal.slot(0)) {
    EXPECT_EQ(op.gate(), GateType::kX);
    qubits.insert(op.qubit(0));
  }
  EXPECT_EQ(qubits, (std::set<Qubit>{2, 4, 6}));
  star_.on_logical_h();
  qubits.clear();
  const Circuit rotated = star_.logical_x_circuit();
  for (const Operation& op : rotated.slot(0)) {
    qubits.insert(op.qubit(0));
  }
  EXPECT_EQ(qubits, (std::set<Qubit>{0, 4, 8}));
}

TEST_F(NinjaStarTest, TransversalCircuits) {
  EXPECT_EQ(star_.logical_h_circuit().num_operations(), 9u);
  EXPECT_EQ(star_.reset_circuit().num_operations(), 9u);
  EXPECT_EQ(star_.measure_circuit().num_operations(), 9u);
  EXPECT_EQ(star_.measure_circuit().count(GateType::kMeasureZ), 9u);
}

TEST_F(NinjaStarTest, CnotPairingSameOrientation) {
  NinjaStar target{17, &layout_};
  const Circuit c = NinjaStar::logical_cnot_circuit(star_, target);
  ASSERT_EQ(c.num_operations(), 9u);
  for (const Operation& op : c.slot(0)) {
    EXPECT_EQ(op.gate(), GateType::kCnot);
    EXPECT_EQ(op.target() - 17u, op.control());  // straight pairing
  }
}

TEST_F(NinjaStarTest, CnotPairingDifferentOrientation) {
  NinjaStar target{17, &layout_};
  star_.on_logical_h();  // rotate the control lattice
  const Circuit c = NinjaStar::logical_cnot_circuit(star_, target);
  // §2.6.1 rotated pairing: (0,6),(1,3),(2,0),(3,7),(4,4),(5,1),(6,8),
  // (7,5),(8,2).
  const std::array<Qubit, 9> expect{6, 3, 0, 7, 4, 1, 8, 5, 2};
  for (const Operation& op : c.slot(0)) {
    EXPECT_EQ(op.target() - 17u, expect[op.control()]);
  }
}

TEST_F(NinjaStarTest, CzPairingInvertsRule) {
  NinjaStar other{17, &layout_};
  // Same orientation -> rotated pairing for CZ.
  const Circuit same = NinjaStar::logical_cz_circuit(star_, other);
  const std::array<Qubit, 9> rotated{6, 3, 0, 7, 4, 1, 8, 5, 2};
  for (const Operation& op : same.slot(0)) {
    EXPECT_EQ(op.target() - 17u, rotated[op.control()]);
  }
  // Different orientation -> straight pairing.
  star_.on_logical_h();
  const Circuit diff = NinjaStar::logical_cz_circuit(star_, other);
  for (const Operation& op : diff.slot(0)) {
    EXPECT_EQ(op.target() - 17u, op.control());
  }
}

// --- Window decoding ---------------------------------------------------

// Helper: 8-bit syndrome with the given local ancilla bits set.
Syndrome syndrome_of(std::initializer_list<int> ancillas) {
  Syndrome s = 0;
  for (int a : ancillas) {
    s = static_cast<Syndrome>(s | (1u << a));
  }
  return s;
}

TEST_F(NinjaStarTest, CleanWindowDecodesToNothing) {
  star_.on_reset();
  EXPECT_TRUE(star_.decode_window(0, 0).empty());
  EXPECT_EQ(star_.carried_syndrome(), 0);
}

TEST_F(NinjaStarTest, PersistentXErrorGetsXCorrection) {
  star_.on_reset();
  // X on D0 flips Z-check Z0Z3 = ancilla 4, in both rounds.
  const Syndrome s = syndrome_of({4});
  const auto corrections = star_.decode_window(s, s);
  ASSERT_EQ(corrections.size(), 1u);
  EXPECT_EQ(corrections[0].gate(), GateType::kX);
  EXPECT_EQ(corrections[0].qubit(0), 0u);
  // The carried round accounts for the applied correction.
  EXPECT_EQ(star_.carried_syndrome(), 0);
}

TEST_F(NinjaStarTest, PersistentZErrorGetsZCorrection) {
  star_.on_reset();
  // Z on D8 flips X-check X4X5X7X8 = ancilla 2.
  const Syndrome s = syndrome_of({2});
  const auto corrections = star_.decode_window(s, s);
  ASSERT_EQ(corrections.size(), 1u);
  EXPECT_EQ(corrections[0].gate(), GateType::kZ);
  // D5 and D8 share the signature {X-check 2}; either is a valid fix.
  EXPECT_TRUE(corrections[0].qubit(0) == 5u || corrections[0].qubit(0) == 8u);
}

TEST_F(NinjaStarTest, TransientMeasurementErrorIsFiltered) {
  star_.on_reset();
  // Bit set in r1 only: a measurement error; nothing to correct.
  EXPECT_TRUE(star_.decode_window(syndrome_of({5}), 0).empty());
  EXPECT_EQ(star_.carried_syndrome(), 0);
}

TEST_F(NinjaStarTest, LastRoundErrorIsDeferredThenCorrected) {
  star_.on_reset();
  const Syndrome s = syndrome_of({6});  // X error seen only in r2
  EXPECT_TRUE(star_.decode_window(0, s).empty());
  EXPECT_EQ(star_.carried_syndrome(), s);  // carried into the next window
  // Next window: the error persists in both rounds -> corrected now.
  const auto corrections = star_.decode_window(s, s);
  ASSERT_EQ(corrections.size(), 1u);
  EXPECT_EQ(corrections[0].gate(), GateType::kX);
  EXPECT_EQ(star_.carried_syndrome(), 0);
}

TEST_F(NinjaStarTest, FirstRoundOnlyErrorIsOutvoted) {
  // Window boundary: a bit present only in the carried (first) round of
  // the 3-round window {carried, r1, r2} is outvoted 1-against-2 and
  // must not produce a correction or survive into the next carry.
  star_.on_reset();
  star_.set_carried_syndrome(syndrome_of({4}));
  EXPECT_TRUE(star_.decode_window(0, 0).empty());
  EXPECT_EQ(star_.carried_syndrome(), 0);
}

TEST_F(NinjaStarTest, CarriedPlusFirstRoundStillDefers) {
  // Window boundary: carried and r1 agree but r2 differs.  A naive
  // majority vote would correct (2 of 3 rounds), but acting while the
  // two fresh rounds disagree can walk a chain into a logical
  // operator, so the decoder defers and carries r2.  (This is exactly
  // the boundary the planted bug 8 shifts: comparing carried vs r1
  // would vote here.)
  star_.on_reset();
  const Syndrome s = syndrome_of({4});
  star_.set_carried_syndrome(s);
  EXPECT_TRUE(star_.decode_window(s, 0).empty());
  EXPECT_EQ(star_.carried_syndrome(), 0);  // carry tracks r2
}

TEST_F(NinjaStarTest, LastRoundDisagreementDefersBothGroups) {
  // Last-round boundary in both check groups at once: each group sees
  // r1 != r2 in its own ancilla window and must defer independently.
  star_.on_reset();
  const Syndrome z_only = syndrome_of({4});  // Z-check group ancilla
  const Syndrome x_only = syndrome_of({1});  // X-check group ancilla
  EXPECT_TRUE(star_.decode_window(z_only, x_only).empty());
  EXPECT_EQ(star_.carried_syndrome(), x_only);
}

TEST_F(NinjaStarTest, FullThreeRoundAgreementCorrectsAndClearsCarry) {
  // All three rounds of the window agree: the correction is emitted
  // and its signature cancels the carried round exactly.
  star_.on_reset();
  const Syndrome s = syndrome_of({4});
  star_.set_carried_syndrome(s);
  const auto corrections = star_.decode_window(s, s);
  ASSERT_EQ(corrections.size(), 1u);
  EXPECT_EQ(corrections[0].gate(), GateType::kX);
  EXPECT_EQ(corrections[0].qubit(0), 0u);
  EXPECT_EQ(star_.carried_syndrome(), 0);
}

TEST_F(NinjaStarTest, MixedBoundaryOneGroupVotesOtherDefers) {
  // The Z-check group sees a persistent error (r1 == r2) while the
  // X-check group sees a last-round-only bit: one correction, and the
  // deferred bit alone survives in the carry.
  star_.on_reset();
  const Syndrome persistent = syndrome_of({4});
  const Syndrome late = syndrome_of({1});
  const auto corrections = star_.decode_window(
      persistent, static_cast<Syndrome>(persistent | late));
  ASSERT_EQ(corrections.size(), 1u);
  EXPECT_EQ(corrections[0].gate(), GateType::kX);
  EXPECT_EQ(star_.carried_syndrome(), late);
}

TEST_F(NinjaStarTest, WeightTwoSyndromeDecoded) {
  star_.on_reset();
  // X on D4 flips Z-checks on ancillas 5 and 6.
  const Syndrome s = syndrome_of({5, 6});
  const auto corrections = star_.decode_window(s, s);
  ASSERT_EQ(corrections.size(), 1u);
  EXPECT_EQ(corrections[0].gate(), GateType::kX);
  EXPECT_EQ(corrections[0].qubit(0), 4u);
}

TEST_F(NinjaStarTest, SimultaneousXandZDecoded) {
  star_.on_reset();
  // X on D0 (ancilla 4) plus Z on D2 (X-check ancilla 1).
  const Syndrome s = syndrome_of({4, 1});
  const auto corrections = star_.decode_window(s, s);
  ASSERT_EQ(corrections.size(), 2u);
}

TEST_F(NinjaStarTest, DecodeInitializationClearsAnySyndrome) {
  for (unsigned raw = 0; raw < 256; raw += 37) {
    NinjaStar fresh{0, &layout_};
    fresh.on_reset();
    (void)fresh.decode_initialization(static_cast<Syndrome>(raw));
    EXPECT_EQ(fresh.carried_syndrome(), 0);
  }
}

TEST_F(NinjaStarTest, SignatureRoundTrip) {
  star_.on_reset();
  // X error on D4 -> flips effective-Z checks (ancillas 5, 6).
  EXPECT_EQ(star_.signature({4}, CheckType::kX), syndrome_of({5, 6}));
  // Z error on D4 -> flips effective-X checks (ancillas 0, 2).
  EXPECT_EQ(star_.signature({4}, CheckType::kZ), syndrome_of({0, 2}));
}

TEST_F(NinjaStarTest, RotatedDecodingUsesSwappedGroups) {
  star_.on_reset();
  star_.on_logical_h();  // rotate: ancillas 0..3 now measure Z checks
  // An X error on D0 now flips the effective-Z check over {0,1,3,4},
  // which is ancilla 0.
  const Syndrome s = syndrome_of({0});
  const auto corrections = star_.decode_window(s, s);
  ASSERT_EQ(corrections.size(), 1u);
  EXPECT_EQ(corrections[0].gate(), GateType::kX);
}

}  // namespace
}  // namespace qpf::qec
