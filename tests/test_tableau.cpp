// Tests for the Aaronson–Gottesman tableau simulator, including
// cross-validation against the dense state-vector simulator.
#include "stabilizer/tableau.h"

#include <gtest/gtest.h>

#include <cmath>

#include "circuit/random.h"
#include "statevector/simulator.h"

namespace qpf::stab {
namespace {

TEST(TableauTest, InitialStabilizersAreZ) {
  const Tableau t(3);
  for (std::size_t i = 0; i < 3; ++i) {
    const PauliString s = t.stabilizer(i);
    EXPECT_EQ(s.pauli(i), Pauli::kZ);
    EXPECT_EQ(s.weight(), 1u);
    EXPECT_EQ(s.sign(), +1);
  }
}

TEST(TableauTest, XFlipsDeterministicMeasurement) {
  Tableau t(2);
  t.apply_x(0);
  const MeasureResult m = t.measure(0);
  EXPECT_TRUE(m.value);
  EXPECT_TRUE(m.deterministic);
  EXPECT_FALSE(t.measure(1).value);
}

TEST(TableauTest, HadamardMakesMeasurementRandom) {
  Tableau t(1, 7);
  t.apply_h(0);
  EXPECT_DOUBLE_EQ(t.probability_one(0), 0.5);
  const MeasureResult m = t.measure(0);
  EXPECT_FALSE(m.deterministic);
  // After collapse the outcome is pinned.
  EXPECT_EQ(t.measure(0).value, m.value);
  EXPECT_TRUE(t.measure(0).deterministic);
}

TEST(TableauTest, BellPairCorrelations) {
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    Tableau t(2, seed);
    t.apply_h(0);
    t.apply_cnot(0, 1);
    const MeasureResult m0 = t.measure(0);
    const MeasureResult m1 = t.measure(1);
    EXPECT_EQ(m0.value, m1.value) << "seed " << seed;
    EXPECT_TRUE(m1.deterministic);
  }
}

TEST(TableauTest, SdagIsInverseOfS) {
  Tableau t(1);
  t.apply_h(0);
  t.apply_s(0);
  t.apply_sdag(0);
  t.apply_h(0);
  EXPECT_DOUBLE_EQ(t.probability_one(0), 0.0);
}

TEST(TableauTest, SFourTimesIsIdentity) {
  Tableau t(1);
  t.apply_h(0);
  for (int i = 0; i < 4; ++i) {
    t.apply_s(0);
  }
  t.apply_h(0);
  EXPECT_DOUBLE_EQ(t.probability_one(0), 0.0);
}

TEST(TableauTest, YEqualsXThenZUpToPhase) {
  Tableau a(2, 5);
  Tableau b(2, 5);
  a.apply_h(0);
  b.apply_h(0);
  a.apply_y(0);
  b.apply_z(0);
  b.apply_x(0);
  // Compare stabilizer groups via expectations of a generating set.
  for (const char* s : {"X0", "Z0", "Y0", "Z1"}) {
    const PauliString p = PauliString::parse(s, 2);
    EXPECT_EQ(a.expectation(p), b.expectation(p)) << s;
  }
}

TEST(TableauTest, ResetFromEntangledState) {
  Tableau t(2, 13);
  t.apply_h(0);
  t.apply_cnot(0, 1);
  t.reset(0);
  EXPECT_DOUBLE_EQ(t.probability_one(0), 0.0);
}

TEST(TableauTest, ExpectationOfStabilizerState) {
  Tableau t(2);
  t.apply_h(0);
  t.apply_cnot(0, 1);  // (|00> + |11>)/sqrt(2)
  EXPECT_EQ(t.expectation(PauliString::parse("X0X1")), +1);
  EXPECT_EQ(t.expectation(PauliString::parse("Z0Z1")), +1);
  EXPECT_EQ(t.expectation(PauliString::parse("-Z0Z1")), -1);
  EXPECT_EQ(t.expectation(PauliString::parse("Y0Y1")), -1);
  EXPECT_EQ(t.expectation(PauliString::parse("Z0", 2)), 0);  // random
  EXPECT_TRUE(t.is_stabilized_by(PauliString::parse("X0X1")));
  EXPECT_FALSE(t.is_stabilized_by(PauliString::parse("-X0X1")));
}

TEST(TableauTest, ApplyPauliStringInjectsErrors) {
  Tableau t(3);
  t.apply_pauli(PauliString::parse("X0X2", 3));
  EXPECT_TRUE(t.measure(0).value);
  EXPECT_FALSE(t.measure(1).value);
  EXPECT_TRUE(t.measure(2).value);
}

TEST(TableauTest, NonCliffordGateRejected) {
  Tableau t(1);
  EXPECT_THROW(t.apply_unitary(Operation{GateType::kT, 0}),
               std::invalid_argument);
}

TEST(TableauTest, OutOfRangeQubitThrows) {
  Tableau t(2);
  EXPECT_THROW(t.apply_h(2), std::out_of_range);
  EXPECT_THROW((void)t.measure(9), std::out_of_range);
}

TEST(TableauTest, ExecuteCircuitRecordsMeasurements) {
  Tableau t(2, 3);
  Circuit c;
  c.append(GateType::kX, 0);
  c.append(GateType::kMeasureZ, 0);
  c.append(GateType::kMeasureZ, 1);
  t.execute(c);
  const auto results = t.take_measurements();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].value);
  EXPECT_FALSE(results[1].value);
}

// Cross-validation: run the same random Clifford circuit on the tableau
// and on the dense simulator and compare every single-qubit probability
// and a set of Pauli expectations after every slot-sized prefix.
class CrossValidation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrossValidation, MatchesStateVectorOnRandomCliffordCircuits) {
  const std::uint64_t seed = GetParam();
  RandomCircuitGenerator gen(seed);
  RandomCircuitOptions options;
  options.num_qubits = 4;
  options.num_gates = 120;
  options.clifford_only = true;
  const Circuit circuit = gen.generate(options);

  Tableau tableau(4, seed + 1);
  sv::Simulator dense(4, seed + 2);
  for (const SlotView slot : circuit) {
    for (const Operation& op : slot) {
      tableau.apply_unitary(op);
      dense.apply_unitary(op);
    }
    for (Qubit q = 0; q < 4; ++q) {
      EXPECT_NEAR(tableau.probability_one(q), dense.probability_one(q), 1e-9)
          << "qubit " << q;
    }
  }
  // Expectations of a few Pauli strings: derive the dense value by
  // applying the string and computing the overlap.
  for (const char* text : {"Z0", "X1", "Y2", "Z0Z1", "X0X1X2X3", "Z1X3"}) {
    const PauliString p = PauliString::parse(text, 4);
    sv::Simulator applied = dense;
    for (std::size_t q = 0; q < 4; ++q) {
      switch (p.pauli(q)) {
        case Pauli::kX:
          applied.apply_unitary(Operation{GateType::kX, static_cast<Qubit>(q)});
          break;
        case Pauli::kY:
          applied.apply_unitary(Operation{GateType::kY, static_cast<Qubit>(q)});
          break;
        case Pauli::kZ:
          applied.apply_unitary(Operation{GateType::kZ, static_cast<Qubit>(q)});
          break;
        case Pauli::kI:
          break;
      }
    }
    std::complex<double> inner{0.0, 0.0};
    for (std::size_t i = 0; i < dense.state().dimension(); ++i) {
      inner += std::conj(dense.state().amplitude(i)) *
               applied.state().amplitude(i);
    }
    const double expectation = inner.real() * p.sign();
    EXPECT_NEAR(static_cast<double>(tableau.expectation(p)), expectation,
                1e-9)
        << text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossValidation,
                         ::testing::Range<std::uint64_t>(1, 21));

// Stabilizer/destabilizer invariant: destabilizer i anticommutes with
// stabilizer i and commutes with every other stabilizer.
TEST(TableauTest, DestabilizerPairing) {
  RandomCircuitGenerator gen(77);
  RandomCircuitOptions options;
  options.num_qubits = 5;
  options.num_gates = 200;
  options.clifford_only = true;
  Tableau t(5, 3);
  const Circuit circuit = gen.generate(options);
  for (const SlotView slot : circuit) {
    for (const Operation& op : slot) {
      t.apply_unitary(op);
    }
  }
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      const bool commute = t.destabilizer(i).commutes_with(t.stabilizer(j));
      EXPECT_EQ(commute, i != j) << i << "," << j;
    }
  }
}

}  // namespace
}  // namespace qpf::stab
