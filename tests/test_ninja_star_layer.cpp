// Integration tests for the ninja-star QEC layer: the §5.1 logical
// operation verification experiments (Listings 5.1 / 5.2, Tables 5.5 /
// 5.6) plus diagnostics and error-correction round trips, at d = 3 and
// (the thesis' larger-distance future work) d = 5.
#include "arch/ninja_star_layer.h"

#include <gtest/gtest.h>

#include "circuit/error.h"

#include <set>

#include "arch/chp_core.h"
#include "arch/control_stack.h"
#include "arch/qx_core.h"
#include "stabilizer/pauli_string.h"

namespace qpf::arch {
namespace {

using qec::CheckType;
using qec::Orientation;

// The 16 data-qubit basis states of |0>_L: the span of the X-stabilizer
// masks acting on |000000000> (this reproduces Listing 5.1).
std::set<std::size_t> logical_zero_support() {
  const std::uint16_t generators[] = {0b000011011, 0b000000110, 0b110110000,
                                      0b011000000};
  std::set<std::size_t> span;
  for (unsigned pick = 0; pick < 16; ++pick) {
    std::size_t value = 0;
    for (int g = 0; g < 4; ++g) {
      if (pick & (1u << g)) {
        value ^= generators[g];
      }
    }
    span.insert(value);
  }
  return span;
}

// Support of |1>_L = X_L |0>_L: the |0>_L span shifted by X2X4X6.
std::set<std::size_t> logical_one_support() {
  std::set<std::size_t> span;
  for (std::size_t v : logical_zero_support()) {
    span.insert(v ^ 0b001010100);
  }
  return span;
}

// Check that a 17-qubit state vector equals the uniform superposition
// over `support` on the data qubits with all ancillas reading zero.
void expect_code_state(const sv::StateVector& state,
                       const std::set<std::size_t>& support) {
  ASSERT_EQ(state.num_qubits(), 17u);
  sv::StateVector expected(17);
  expected.amplitudes()[0] = {0.0, 0.0};
  for (std::size_t basis : support) {
    expected.amplitudes()[basis] = {0.25, 0.0};
  }
  EXPECT_TRUE(state.equals_up_to_global_phase(expected, 1e-9));
}

TEST(NinjaStarLayerQxTest, InitializationYieldsListing51State) {
  QxCore core(3);
  NinjaStarLayer ninja(&core);
  ninja.create_qubits(1);
  ninja.initialize(0, CheckType::kZ);
  const auto state = ninja.get_quantum_state();
  ASSERT_TRUE(state.has_value());
  expect_code_state(*state, logical_zero_support());
  EXPECT_EQ(ninja.get_state()[0], BinaryValue::kZero);
}

TEST(NinjaStarLayerQxTest, InitializationIsRepeatable) {
  // Thesis: "repeated for 100 iterations and the resulting quantum state
  // always equals" Listing 5.1.  A few seeds suffice here.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    QxCore core(seed);
    NinjaStarLayer ninja(&core);
    ninja.create_qubits(1);
    ninja.initialize(0, CheckType::kZ);
    const auto state = ninja.get_quantum_state();
    ASSERT_TRUE(state.has_value());
    expect_code_state(*state, logical_zero_support());
  }
}

TEST(NinjaStarLayerQxTest, LogicalXYieldsListing52State) {
  QxCore core(5);
  NinjaStarLayer ninja(&core);
  ninja.create_qubits(1);
  ninja.initialize(0, CheckType::kZ);
  Circuit logical;
  logical.append(GateType::kX, 0);
  ninja.add(logical);
  ninja.execute();
  const auto state = ninja.get_quantum_state();
  ASSERT_TRUE(state.has_value());
  expect_code_state(*state, logical_one_support());
  EXPECT_EQ(ninja.get_state()[0], BinaryValue::kOne);
}

TEST(NinjaStarLayerQxTest, LogicalZFixesZeroState) {
  // Z_L |0>_L = |0>_L exactly.
  QxCore core(5);
  NinjaStarLayer ninja(&core);
  ninja.create_qubits(1);
  ninja.initialize(0, CheckType::kZ);
  Circuit logical;
  logical.append(GateType::kZ, 0);
  ninja.add(logical);
  ninja.execute();
  const auto state = ninja.get_quantum_state();
  ASSERT_TRUE(state.has_value());
  expect_code_state(*state, logical_zero_support());
}

TEST(NinjaStarLayerChpTest, HadamardProducesPlusState) {
  // H_L |0>_L = |+>_L: in the rotated lattice the state is stabilized by
  // X0X4X8 (the image of Z0Z4Z8 under transversal H).
  ChpCore core(2);
  NinjaStarLayer ninja(&core);
  ninja.create_qubits(1);
  ninja.initialize(0, CheckType::kZ);
  Circuit logical;
  logical.append(GateType::kH, 0);
  ninja.add(logical);
  ninja.execute();
  EXPECT_EQ(ninja.star(0).orientation(), Orientation::kRotated);
  ASSERT_NE(core.tableau(), nullptr);
  EXPECT_EQ(core.tableau()->expectation(
                stab::PauliString::parse("X0X4X8", 17)),
            +1);
  // Two logical Hadamards cancel: back to |0>_L.
  ninja.add(logical);
  ninja.execute();
  EXPECT_EQ(ninja.star(0).orientation(), Orientation::kNormal);
  EXPECT_EQ(core.tableau()->expectation(
                stab::PauliString::parse("Z0Z4Z8", 17)),
            +1);
}

struct CnotCase {
  bool control_one;
  bool target_one;
  bool expect_control_one;
  bool expect_target_one;
};

class CnotTruthTable : public ::testing::TestWithParam<CnotCase> {};

// Table 5.5: CNOT_L truth table over the computational basis.
TEST_P(CnotTruthTable, MatchesTable55) {
  const CnotCase c = GetParam();
  ChpCore core(11);
  NinjaStarLayer ninja(&core);
  ninja.create_qubits(2);
  ninja.initialize(0, CheckType::kZ);
  ninja.initialize(1, CheckType::kZ);
  Circuit logical;
  if (c.control_one) {
    logical.append(GateType::kX, 0);
  }
  if (c.target_one) {
    logical.append(GateType::kX, 1);
  }
  logical.append(GateType::kCnot, 0, 1);
  logical.append(GateType::kMeasureZ, 0);
  logical.append(GateType::kMeasureZ, 1);
  ninja.add(logical);
  ninja.execute();
  const BinaryState state = ninja.get_state();
  EXPECT_EQ(state[0] == BinaryValue::kOne, c.expect_control_one);
  EXPECT_EQ(state[1] == BinaryValue::kOne, c.expect_target_one);
}

INSTANTIATE_TEST_SUITE_P(
    Table55, CnotTruthTable,
    ::testing::Values(CnotCase{false, false, false, false},
                      CnotCase{false, true, false, true},
                      CnotCase{true, false, true, true},
                      CnotCase{true, true, true, false}));

class CzTruthTable : public ::testing::TestWithParam<CnotCase> {};

// Table 5.6: CZ_L acts trivially on computational-basis values.
TEST_P(CzTruthTable, MatchesTable56) {
  const CnotCase c = GetParam();
  ChpCore core(13);
  NinjaStarLayer ninja(&core);
  ninja.create_qubits(2);
  ninja.initialize(0, CheckType::kZ);
  ninja.initialize(1, CheckType::kZ);
  Circuit logical;
  if (c.control_one) {
    logical.append(GateType::kX, 0);
  }
  if (c.target_one) {
    logical.append(GateType::kX, 1);
  }
  logical.append(GateType::kCz, 0, 1);
  logical.append(GateType::kMeasureZ, 0);
  logical.append(GateType::kMeasureZ, 1);
  ninja.add(logical);
  ninja.execute();
  const BinaryState state = ninja.get_state();
  EXPECT_EQ(state[0] == BinaryValue::kOne, c.control_one);
  EXPECT_EQ(state[1] == BinaryValue::kOne, c.target_one);
}

INSTANTIATE_TEST_SUITE_P(
    Table56, CzTruthTable,
    ::testing::Values(CnotCase{false, false, false, false},
                      CnotCase{false, true, false, true},
                      CnotCase{true, false, true, false},
                      CnotCase{true, true, true, true}));

TEST(NinjaStarLayerChpTest, CzPhaseObservableThroughHadamards) {
  // H_L(q0) CZ H_L(q0) acts like a CNOT with q0 as target:
  // |0>|1> -> H0 -> |+>|1> -> CZ -> |->|1> -> H0 -> |1>|1>.
  ChpCore core(17);
  NinjaStarLayer ninja(&core);
  ninja.create_qubits(2);
  ninja.initialize(0, CheckType::kZ);
  ninja.initialize(1, CheckType::kZ);
  Circuit logical;
  logical.append(GateType::kX, 1);
  logical.append(GateType::kH, 0);
  logical.append(GateType::kCz, 0, 1);
  logical.append(GateType::kH, 0);
  logical.append(GateType::kMeasureZ, 0);
  logical.append(GateType::kMeasureZ, 1);
  ninja.add(logical);
  ninja.execute();
  const BinaryState state = ninja.get_state();
  EXPECT_EQ(state[0], BinaryValue::kOne);
  EXPECT_EQ(state[1], BinaryValue::kOne);
}

TEST(NinjaStarLayerChpTest, LogicalMeasurementOfBasisStates) {
  for (bool one : {false, true}) {
    ChpCore core(23);
    NinjaStarLayer ninja(&core);
    ninja.create_qubits(1);
    ninja.initialize(0, CheckType::kZ);
    if (one) {
      Circuit logical;
      logical.append(GateType::kX, 0);
      ninja.add(logical);
      ninja.execute();
    }
    EXPECT_EQ(ninja.measure_logical(0), one ? -1 : +1);
    EXPECT_EQ(ninja.star(0).dance_mode(), qec::DanceMode::kZOnly);
  }
}

TEST(NinjaStarLayerChpTest, PlusStateInitialization) {
  ChpCore core(29);
  NinjaStarLayer ninja(&core);
  ninja.create_qubits(1);
  ninja.initialize(0, CheckType::kX);
  ASSERT_NE(core.tableau(), nullptr);
  // |+>_L is stabilized by X2X4X6 (Table 2.2).
  EXPECT_EQ(
      core.tableau()->expectation(stab::PauliString::parse("X2X4X6", 17)),
      +1);
  EXPECT_EQ(ninja.measure_logical_stabilizer(0, CheckType::kX), +1);
}

TEST(NinjaStarLayerChpTest, LogicalStabilizerReadsWithoutDisturbing) {
  ChpCore core(31);
  NinjaStarLayer ninja(&core);
  ninja.create_qubits(1);
  ninja.initialize(0, CheckType::kZ);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(ninja.measure_logical_stabilizer(0, CheckType::kZ), +1);
  }
  // Still a valid |0>_L afterwards.
  EXPECT_EQ(ninja.measure_logical(0), +1);
}

TEST(NinjaStarLayerChpTest, DiagnosticsDetectAndWindowsCorrectErrors) {
  ChpCore core(37);
  NinjaStarLayer ninja(&core);
  ninja.create_qubits(1);
  ninja.initialize(0, CheckType::kZ);
  EXPECT_FALSE(ninja.has_observable_errors(0));
  // Inject a physical X error on data qubit D4 under the layer's feet.
  Circuit error;
  error.append(GateType::kX, ninja.layout().data_qubit(0, 4));
  run(core, error);
  EXPECT_TRUE(ninja.has_observable_errors(0));
  // One window corrects a persistent single error.
  ninja.run_window(0);
  EXPECT_FALSE(ninja.has_observable_errors(0));
  EXPECT_EQ(ninja.measure_logical_stabilizer(0, CheckType::kZ), +1);
}

TEST(NinjaStarLayerTest, RejectsUnsupportedLogicalGate) {
  ChpCore core;
  NinjaStarLayer ninja(&core);
  ninja.create_qubits(1);
  Circuit logical;
  logical.append(GateType::kT, 0);
  ninja.add(logical);
  EXPECT_THROW(ninja.execute(), StackConfigError);
}

TEST(NinjaStarLayerTest, ValidatesLogicalIndices) {
  ChpCore core;
  NinjaStarLayer ninja(&core);
  ninja.create_qubits(1);
  Circuit logical;
  logical.append(GateType::kX, 3);
  EXPECT_THROW(ninja.add(logical), StackConfigError);
  EXPECT_THROW((void)ninja.star(1), std::out_of_range);
}

// --- Any odd distance ---------------------------------------------------

NinjaStarLayer::Options at_distance(int d) {
  NinjaStarLayer::Options options;
  options.distance = d;
  return options;
}

class NinjaStarLayerDistanceTest : public ::testing::TestWithParam<int> {};

TEST_P(NinjaStarLayerDistanceTest, ErrorFreeMemoryIsStable) {
  ChpCore core(1);
  NinjaStarLayer ninja(&core, at_distance(GetParam()));
  ninja.create_qubits(1);
  ninja.initialize(0, CheckType::kZ);
  for (int w = 0; w < 5; ++w) {
    ninja.run_window(0);
    EXPECT_FALSE(ninja.has_observable_errors(0));
    EXPECT_EQ(ninja.measure_logical_stabilizer(0, CheckType::kZ), +1);
  }
  EXPECT_EQ(ninja.measure_logical(0), +1);
}

TEST_P(NinjaStarLayerDistanceTest, PlusStateIsStable) {
  ChpCore core(5);
  NinjaStarLayer ninja(&core, at_distance(GetParam()));
  ninja.create_qubits(1);
  ninja.initialize(0, CheckType::kX);
  EXPECT_EQ(ninja.measure_logical_stabilizer(0, CheckType::kX), +1);
  ninja.run_window(0);
  EXPECT_EQ(ninja.measure_logical_stabilizer(0, CheckType::kX), +1);
}

// Every single X, Y or Z error on any data qubit is corrected by the
// next window: it shows in both of the window's last two rounds.
TEST_P(NinjaStarLayerDistanceTest, EverySingleDataErrorIsCorrected) {
  const int d = GetParam();
  for (int q = 0; q < d * d; ++q) {
    for (GateType g : {GateType::kX, GateType::kZ, GateType::kY}) {
      ChpCore core(static_cast<std::uint64_t>(41 + q));
      NinjaStarLayer ninja(&core, at_distance(d));
      ninja.create_qubits(1);
      ninja.initialize(0, CheckType::kZ);
      Circuit error;
      error.append(g, ninja.layout().data_qubit(0, q));
      run(core, error);
      ninja.run_window(0);
      EXPECT_FALSE(ninja.has_observable_errors(0))
          << name(g) << " on D" << q << " at d=" << d;
      EXPECT_EQ(ninja.measure_logical_stabilizer(0, CheckType::kZ), +1)
          << name(g) << " on D" << q << " at d=" << d;
    }
  }
}

// Logical X, H and a transversal readout work the same at every
// distance: |1>_L reads -1, and H H is the identity.
TEST_P(NinjaStarLayerDistanceTest, LogicalGatesAndReadout) {
  ChpCore core(3);
  NinjaStarLayer ninja(&core, at_distance(GetParam()));
  ninja.create_qubits(2);
  ninja.initialize(0, CheckType::kZ);
  ninja.initialize(1, CheckType::kZ);
  Circuit logical;
  logical.append(GateType::kX, 0);
  logical.append(GateType::kH, 1);
  logical.append(GateType::kH, 1);
  logical.append(GateType::kCnot, 0, 1);
  ninja.add(logical);
  ninja.execute();
  EXPECT_EQ(ninja.measure_logical(0), -1);
  EXPECT_EQ(ninja.measure_logical(1), -1);
}

// A CNOT between lattices of different orientation pairs data qubits by
// the quarter turn (§2.6.1): phase kickback from a |->_L target turns
// the rotated control |+>_L into |->_L.
TEST_P(NinjaStarLayerDistanceTest, RotatedPairingKicksBackPhase) {
  ChpCore core(7);
  NinjaStarLayer ninja(&core, at_distance(GetParam()));
  ninja.create_qubits(2);
  ninja.initialize(0, CheckType::kZ);
  ninja.initialize(1, CheckType::kX);
  Circuit logical;
  logical.append(GateType::kH, 0);  // |+>_L on a rotated lattice
  logical.append(GateType::kZ, 1);  // |->_L on a normal lattice
  logical.append(GateType::kCnot, 0, 1);
  logical.append(GateType::kH, 0);
  ninja.add(logical);
  ninja.execute();
  EXPECT_FALSE(ninja.has_observable_errors(0));
  EXPECT_FALSE(ninja.has_observable_errors(1));
  EXPECT_EQ(ninja.measure_logical_stabilizer(1, CheckType::kX), -1);
  EXPECT_EQ(ninja.measure_logical(0), -1);
}

INSTANTIATE_TEST_SUITE_P(Distances, NinjaStarLayerDistanceTest,
                         ::testing::Values(3, 5));

TEST(NinjaStarLayerDistanceFiveTest, WeightTwoErrorsCorrected) {
  // A pair of X errors: still below (d-1)/2 = 2 correctable weight.
  for (const auto& pair : {std::pair{0, 7}, {12, 13}, {3, 21}}) {
    ChpCore core(1);
    NinjaStarLayer ninja(&core, at_distance(5));
    ninja.create_qubits(1);
    ninja.initialize(0, CheckType::kZ);
    Circuit error;
    error.append(GateType::kX, static_cast<Qubit>(pair.first));
    error.append(GateType::kX, static_cast<Qubit>(pair.second));
    run(core, error);
    ninja.run_window(0);
    ninja.run_window(0);
    EXPECT_FALSE(ninja.has_observable_errors(0))
        << pair.first << "," << pair.second;
    EXPECT_EQ(ninja.measure_logical_stabilizer(0, CheckType::kZ), +1)
        << pair.first << "," << pair.second;
  }
}

TEST(NinjaStarLayerDistanceFiveTest, CorrectsWhatDistanceThreeCannot) {
  // The weight-2 X error on data {2, 6} produces the same syndrome as a
  // single X on D4 at d = 3, so the LUT "corrects" with X4 and completes
  // X2 X4 X6 = X_L: a logical flip from two faults, as distance 3
  // permits.  At d = 5 the same-index error (data (0,2) and (1,1)) is
  // within the correction capacity and must be recovered.
  const auto survives = [](int distance) {
    ChpCore core(1);
    NinjaStarLayer ninja(&core, at_distance(distance));
    ninja.create_qubits(1);
    ninja.initialize(0, CheckType::kZ);
    Circuit error;
    error.append(GateType::kX, 2);
    error.append(GateType::kX, 6);
    run(core, error);
    ninja.run_window(0);
    ninja.run_window(0);
    return ninja.measure_logical_stabilizer(0, CheckType::kZ) == +1;
  };
  EXPECT_FALSE(survives(3));
  EXPECT_TRUE(survives(5));
}

TEST(NinjaStarLayerDistanceFiveTest, PauliFrameSavesSlotsWithinCeiling) {
  LerStack::Config config;
  config.ninja_options.distance = 5;
  config.physical_error_rate = 5e-3;
  config.with_pauli_frame = true;
  config.seed = 23;
  LerStack stack(config);
  stack.set_diagnostic_mode(true);
  stack.ninja().initialize(0, CheckType::kZ);
  stack.set_diagnostic_mode(false);
  stack.reset_counters();
  for (int w = 0; w < 100; ++w) {
    stack.ninja().run_window(0);
  }
  // Eq 5.12 ceiling for d = 5, tsESM = 8: 1/33.
  EXPECT_GT(stack.slots_saved_fraction(), 0.0);
  EXPECT_LT(stack.slots_saved_fraction(), 1.0 / 33.0 + 1e-9);
}

TEST(NinjaStarLayerTest, DistanceValidated) {
  ChpCore core;
  for (int d : {1, 2, 4, 9}) {
    EXPECT_THROW(NinjaStarLayer(&core, at_distance(d)), StackConfigError)
        << "d=" << d;
  }
  NinjaStarLayer five(&core, at_distance(5));
  five.create_qubits(2);
  EXPECT_EQ(core.num_qubits(), 2u * 49u);
  EXPECT_THROW(five.initialize_injected(0, Circuit{}), StackConfigError);
}

}  // namespace
}  // namespace qpf::arch
