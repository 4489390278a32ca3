// Tests for the QASM-dialect and CHP-format serializers.
#include "circuit/qasm.h"

#include <gtest/gtest.h>

#include "circuit/error.h"
#include "circuit/random.h"
#include "stabilizer/chp_format.h"

namespace qpf {
namespace {

TEST(QasmTest, RoundTripPreservesSlotStructure) {
  Circuit c{"demo"};
  c.append(GateType::kPrepZ, 0);
  c.append(GateType::kPrepZ, 1);
  c.append(GateType::kH, 0);
  c.append(GateType::kCnot, 0, 1);
  c.append(GateType::kMeasureZ, 0);
  c.append(GateType::kMeasureZ, 1);
  const Circuit parsed = from_qasm(to_qasm(c));
  EXPECT_EQ(parsed, c);
}

TEST(QasmTest, RandomCircuitRoundTrips) {
  RandomCircuitGenerator gen(7);
  RandomCircuitOptions options;
  options.num_qubits = 6;
  options.num_gates = 200;
  for (int i = 0; i < 5; ++i) {
    const Circuit c = gen.generate(options);
    EXPECT_EQ(from_qasm(to_qasm(c)), c) << "iteration " << i;
  }
}

TEST(QasmTest, ParsesCommentsAndHeader) {
  const Circuit c = from_qasm("# hello\nqubits 3\nh q0\n|\ncnot q0,q2\n");
  EXPECT_EQ(c.num_slots(), 2u);
  EXPECT_EQ(c.num_operations(), 2u);
  EXPECT_EQ(c.min_register_size(), 3u);
}

TEST(QasmTest, UnknownGateFails) {
  EXPECT_THROW((void)from_qasm("frobnicate q0\n"), std::runtime_error);
}

TEST(QasmTest, MissingOperandsFails) {
  EXPECT_THROW((void)from_qasm("h\n"), std::runtime_error);
  EXPECT_THROW((void)from_qasm("cnot q0\n"), std::runtime_error);
}

TEST(QasmTest, BadQubitTokenFails) {
  EXPECT_THROW((void)from_qasm("h x0\n"), std::runtime_error);
  EXPECT_THROW((void)from_qasm("h qx\n"), std::runtime_error);
}

TEST(QasmTest, SingleQubitGateWithTwoOperandsFails) {
  EXPECT_THROW((void)from_qasm("h q0,q1\n"), std::runtime_error);
}

TEST(QasmTest, ErrorsAreTypedWithLineAndColumn) {
  try {
    (void)from_qasm("h q0\nfrobnicate q0\n");
    FAIL() << "expected QasmParseError";
  } catch (const QasmParseError& e) {
    ASSERT_TRUE(e.context().line.has_value());
    EXPECT_EQ(*e.context().line, 2u);
    ASSERT_TRUE(e.context().column.has_value());
    EXPECT_EQ(*e.context().column, 1u);
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(QasmTest, QubitIndexValidatedAgainstDeclaredRegister) {
  // Within bounds: fine.
  EXPECT_NO_THROW((void)from_qasm("qubits 3\nx q2\n"));
  // q3 in a 3-qubit register: rejected, with the offending line.
  try {
    (void)from_qasm("qubits 3\nh q0\nx q3\n");
    FAIL() << "expected QasmParseError";
  } catch (const QasmParseError& e) {
    ASSERT_TRUE(e.context().line.has_value());
    EXPECT_EQ(*e.context().line, 3u);
    EXPECT_NE(std::string(e.what()).find("exceeds declared register"),
              std::string::npos);
  }
  // Without a header any index is accepted (register grows to fit).
  EXPECT_NO_THROW((void)from_qasm("x q7\n"));
}

TEST(QasmTest, MalformedHeaderFails) {
  EXPECT_THROW((void)from_qasm("qubits\nh q0\n"), QasmParseError);
  EXPECT_THROW((void)from_qasm("qubits two\nh q0\n"), QasmParseError);
  EXPECT_THROW((void)from_qasm("qubits 0\nh q0\n"), QasmParseError);
  EXPECT_THROW((void)from_qasm("qubits 2 3\nh q0\n"), QasmParseError);
}

TEST(QasmTest, OverflowingQubitIndexFails) {
  EXPECT_THROW((void)from_qasm("h q99999999999\n"), QasmParseError);
}

TEST(QasmTest, TwoQubitOperandsMustDiffer) {
  EXPECT_THROW((void)from_qasm("cnot q1,q1\n"), QasmParseError);
}

TEST(ChpFormatTest, RoundTripGeneratorCircuit) {
  Circuit c;
  c.append(GateType::kH, 0);
  c.append(GateType::kCnot, 0, 1);
  c.append(GateType::kS, 1);
  c.append(GateType::kMeasureZ, 0);
  const Circuit parsed = stab::from_chp(stab::to_chp(c));
  EXPECT_EQ(parsed.num_operations(), c.num_operations());
  EXPECT_EQ(parsed.count(GateType::kCnot), 1u);
  EXPECT_EQ(parsed.count(GateType::kS), 1u);
}

TEST(ChpFormatTest, RejectsNonChpGate) {
  Circuit c;
  c.append(GateType::kT, 0);
  EXPECT_THROW((void)stab::to_chp(c), std::invalid_argument);
}

TEST(ChpFormatTest, ExpansionCoversDerivedCliffords) {
  Circuit c;
  c.append(GateType::kX, 0);
  c.append(GateType::kY, 0);
  c.append(GateType::kZ, 0);
  c.append(GateType::kSdag, 0);
  c.append(GateType::kCz, 0, 1);
  c.append(GateType::kSwap, 0, 1);
  const Circuit expanded = stab::expand_to_chp_gates(c);
  for (const SlotView slot : expanded) {
    for (const Operation& op : slot) {
      const GateType g = op.gate();
      EXPECT_TRUE(g == GateType::kH || g == GateType::kS ||
                  g == GateType::kCnot || g == GateType::kMeasureZ)
          << op.str();
    }
  }
  // And the expansion is expressible in CHP format.
  EXPECT_NO_THROW((void)stab::to_chp(expanded));
}

TEST(ChpFormatTest, ExpansionRejectsNonClifford) {
  Circuit c;
  c.append(GateType::kT, 0);
  EXPECT_THROW((void)stab::expand_to_chp_gates(c), std::invalid_argument);
}

}  // namespace
}  // namespace qpf
