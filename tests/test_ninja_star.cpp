// Tests for the NinjaStar run-time model: properties (Tables 5.2 / 5.3),
// logical-operation conversion (Table 5.1) and window decoding, at d = 3
// (LUT decoder) and d = 5 (matching decoder).
#include "qec/ninja_star.h"

#include <gtest/gtest.h>

#include <random>
#include <set>

#include "circuit/error.h"
#include "seed_support.h"

namespace qpf::qec {
namespace {

class NinjaStarTest : public ::testing::Test {
 protected:
  SurfaceCodeLayout layout_{3};
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

// Helper: syndrome with the given local ancilla bits set.
Syndrome syndrome_of(std::initializer_list<int> ancillas) {
  Syndrome s = 0;
  for (int a : ancillas) {
    s |= Syndrome{1} << a;
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
  // the 3-round window {carried, r1, r2} is absent from the two agreeing
  // fresh rounds, so it must not produce a correction or survive into
  // the next carry.
  star_.on_reset();
  star_.set_carried_syndrome(syndrome_of({4}));
  EXPECT_TRUE(star_.decode_window(0, 0).empty());
  EXPECT_EQ(star_.carried_syndrome(), 0);
}

TEST_F(NinjaStarTest, CarriedPlusFirstRoundStillDefers) {
  // Window boundary: carried and r1 agree but r2 differs.  Two of three
  // rounds show the bit, but acting while the two fresh rounds disagree
  // can walk a chain into a logical operator, so the decoder defers and
  // carries r2.  (This is exactly the boundary the planted bug 8 shifts:
  // comparing carried vs r1 would act here.)
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
    (void)fresh.decode_initialization(raw);
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

TEST_F(NinjaStarTest, CarriedRoundSnapshotsAsOneByte) {
  star_.on_reset();
  star_.set_carried_syndrome(0xa5);
  journal::SnapshotWriter out;
  star_.save(out);
  NinjaStar restored{0, &layout_};
  journal::SnapshotReader in(out.bytes());
  restored.load(in);
  EXPECT_TRUE(in.exhausted());
  EXPECT_EQ(restored.carried_syndrome(), 0xa5u);
  // tag + base + three property bytes + one carried byte.
  journal::SnapshotWriter expected;
  expected.tag("ninja-star");
  expected.write_u32(0);
  expected.write_u8(0);
  expected.write_u8(0);
  expected.write_u8(0);
  expected.write_u8(0xa5);
  EXPECT_EQ(out.bytes(), expected.bytes());
}

TEST(NinjaStarLayoutTest, UnsupportedLayoutsRejected) {
  const SurfaceCodeLayout nine(9);
  EXPECT_THROW(NinjaStar(0, &nine), StackConfigError);
  const SurfaceCodeLayout rectangle(3, 5);
  EXPECT_THROW(NinjaStar(0, &rectangle), StackConfigError);
  EXPECT_THROW(NinjaStar(0, nullptr), std::invalid_argument);
  const SurfaceCodeLayout five(5);
  const NinjaStar star(0, &five);
  EXPECT_THROW((void)star.lut(CheckType::kZ), std::logic_error);
}

// --- Window decoding at d = 5 (matching) -------------------------------

class NinjaStarDistanceFiveTest : public ::testing::Test {
 protected:
  /// Syndrome of data errors of `error_basis` on the given qubits.
  [[nodiscard]] Syndrome errors_on(std::initializer_list<int> data,
                                   CheckType error_basis) const {
    return star_.signature(std::vector<int>(data), error_basis);
  }

  SurfaceCodeLayout layout_{5};
  NinjaStar star_{0, &layout_};
};

TEST_F(NinjaStarDistanceFiveTest, CleanWindowDoesNothing) {
  star_.on_reset();
  EXPECT_TRUE(star_.decode_window(0, 0).empty());
  EXPECT_EQ(star_.carried_syndrome(), 0u);
}

TEST_F(NinjaStarDistanceFiveTest,
       PersistentErrorCorrectedDisagreementDeferred) {
  star_.on_reset();
  // X error on the centre data qubit 12 -> defects on its Z checks.
  const Syndrome round = errors_on({12}, CheckType::kX);
  ASSERT_NE(round, 0u);
  // Disagreeing rounds: deferred.
  EXPECT_TRUE(star_.decode_window(0, round).empty());
  EXPECT_EQ(star_.carried_syndrome(), round);
  // Agreeing rounds: corrected, carried returns to clean.
  const auto corrections = star_.decode_window(round, round);
  ASSERT_EQ(corrections.size(), 1u);
  EXPECT_EQ(corrections[0].gate(), GateType::kX);
  EXPECT_EQ(corrections[0].qubit(0), 12u);
  EXPECT_EQ(star_.carried_syndrome(), 0u);
}

TEST_F(NinjaStarDistanceFiveTest, WeightTwoErrorsOfBothKindsMergeIntoY) {
  star_.on_reset();
  // X and Z on qubit 6 plus X on qubit 18: one Y and one X.
  const Syndrome round =
      errors_on({6, 18}, CheckType::kX) | errors_on({6}, CheckType::kZ);
  const auto corrections = star_.decode_window(round, round);
  std::set<std::pair<int, Qubit>> got;
  for (const Operation& op : corrections) {
    got.insert({static_cast<int>(op.gate()), op.qubit(0)});
  }
  EXPECT_EQ(got, (std::set<std::pair<int, Qubit>>{
                     {static_cast<int>(GateType::kY), 6},
                     {static_cast<int>(GateType::kX), 18}}));
  EXPECT_EQ(star_.carried_syndrome(), 0u);
}

TEST_F(NinjaStarDistanceFiveTest, InitializationClearsEverything) {
  star_.on_reset();
  const std::uint64_t seed = qpf::test::test_seed(3);
  QPF_ANNOUNCE_SEED(seed);
  std::mt19937_64 rng(seed);
  const Syndrome round = rng() & ((Syndrome{1} << 24) - 1);
  const auto corrections = star_.decode_initialization(round);
  EXPECT_EQ(star_.carried_syndrome(), 0u);
  // The corrections reproduce the observed syndrome exactly.
  std::vector<int> x_fixes;
  std::vector<int> z_fixes;
  for (const Operation& op : corrections) {
    if (op.gate() != GateType::kZ) {
      x_fixes.push_back(static_cast<int>(op.qubit(0)));
    }
    if (op.gate() != GateType::kX) {
      z_fixes.push_back(static_cast<int>(op.qubit(0)));
    }
  }
  EXPECT_EQ(star_.signature(x_fixes, CheckType::kX) |
                star_.signature(z_fixes, CheckType::kZ),
            round);
}

TEST_F(NinjaStarDistanceFiveTest, CarriedRoundSnapshotsAsThreeBytes) {
  star_.on_reset();
  const Syndrome carried = 0xabcdefu;  // all 24 check bits in use
  star_.set_carried_syndrome(carried);
  journal::SnapshotWriter out;
  star_.save(out);
  NinjaStar restored{0, &layout_};
  journal::SnapshotReader in(out.bytes());
  restored.load(in);
  EXPECT_TRUE(in.exhausted());
  EXPECT_EQ(restored.carried_syndrome(), carried);
  // A d = 3 star reads one carried byte and finds a second: the typed
  // stream rejects it rather than misreading the rest.
  SurfaceCodeLayout three(3);
  NinjaStar small{0, &three};
  journal::SnapshotReader wrong(out.bytes());
  small.load(wrong);
  EXPECT_FALSE(wrong.exhausted());
}

}  // namespace
}  // namespace qpf::qec
