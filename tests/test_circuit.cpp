// Unit tests for Operation, TimeSlot and Circuit (circuit/circuit.h).
#include "circuit/circuit.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "circuit/qasm.h"
#include "journal/snapshot.h"

namespace qpf {
namespace {

TEST(OperationTest, SingleQubitConstruction) {
  const Operation op{GateType::kH, 3};
  EXPECT_EQ(op.gate(), GateType::kH);
  EXPECT_EQ(op.arity(), 1);
  EXPECT_EQ(op.qubit(0), 3u);
  EXPECT_TRUE(op.touches(3));
  EXPECT_FALSE(op.touches(2));
}

TEST(OperationTest, TwoQubitConstruction) {
  const Operation op{GateType::kCnot, 1, 4};
  EXPECT_EQ(op.arity(), 2);
  EXPECT_EQ(op.control(), 1u);
  EXPECT_EQ(op.target(), 4u);
  EXPECT_TRUE(op.touches(1));
  EXPECT_TRUE(op.touches(4));
  EXPECT_EQ(op.max_qubit(), 4u);
}

TEST(OperationTest, ArityMismatchThrows) {
  EXPECT_THROW((Operation{GateType::kCnot, 1}), std::invalid_argument);
  EXPECT_THROW((Operation{GateType::kH, 1, 2}), std::invalid_argument);
}

TEST(OperationTest, SameOperandsThrow) {
  EXPECT_THROW((Operation{GateType::kCnot, 2, 2}), std::invalid_argument);
}

TEST(OperationTest, OperandIndexOutOfRangeThrows) {
  const Operation op{GateType::kX, 0};
  EXPECT_THROW((void)op.qubit(1), std::out_of_range);
  EXPECT_THROW((void)op.qubit(-1), std::out_of_range);
}

TEST(OperationTest, Rendering) {
  EXPECT_EQ((Operation{GateType::kX, 2}.str()), "x q2");
  EXPECT_EQ((Operation{GateType::kCnot, 0, 7}.str()), "cnot q0,q7");
}

TEST(TimeSlotTest, ConflictDetection) {
  TimeSlot slot;
  slot.add(Operation{GateType::kCnot, 0, 1});
  EXPECT_TRUE(slot.conflicts(Operation{GateType::kH, 0}));
  EXPECT_TRUE(slot.conflicts(Operation{GateType::kH, 1}));
  EXPECT_FALSE(slot.conflicts(Operation{GateType::kH, 2}));
  EXPECT_THROW(slot.add(Operation{GateType::kX, 1}), std::invalid_argument);
}

TEST(CircuitTest, GreedySchedulingPacksIndependentOps) {
  Circuit c;
  c.append(GateType::kH, 0);
  c.append(GateType::kH, 1);
  c.append(GateType::kH, 2);
  EXPECT_EQ(c.num_slots(), 1u);
  c.append(GateType::kX, 0);  // conflicts -> new slot
  EXPECT_EQ(c.num_slots(), 2u);
  EXPECT_EQ(c.num_operations(), 4u);
}

TEST(CircuitTest, AppendInNewSlotForcesSequencing) {
  Circuit c;
  c.append_in_new_slot(Operation{GateType::kH, 0});
  c.append_in_new_slot(Operation{GateType::kH, 1});
  EXPECT_EQ(c.num_slots(), 2u);
}

TEST(CircuitTest, EmptySlotsAreDropped) {
  Circuit c;
  c.append_slot(TimeSlot{});
  EXPECT_TRUE(c.empty());
}

TEST(CircuitTest, AppendCircuitPreservesSlots) {
  Circuit a;
  a.append(GateType::kH, 0);
  a.append(GateType::kX, 0);
  Circuit b;
  b.append(GateType::kZ, 1);
  b.append_circuit(a);
  EXPECT_EQ(b.num_slots(), 3u);
  EXPECT_EQ(b.num_operations(), 3u);
}

TEST(CircuitTest, CountsByTypeAndCategory) {
  Circuit c;
  c.append(GateType::kX, 0);
  c.append(GateType::kX, 1);
  c.append(GateType::kH, 2);
  c.append(GateType::kT, 3);
  c.append(GateType::kMeasureZ, 4);
  EXPECT_EQ(c.count(GateType::kX), 2u);
  EXPECT_EQ(c.count(GateCategory::kPauli), 2u);
  EXPECT_EQ(c.count(GateCategory::kClifford), 1u);
  EXPECT_EQ(c.count(GateCategory::kNonClifford), 1u);
  EXPECT_EQ(c.count(GateCategory::kMeasurement), 1u);
}

TEST(CircuitTest, MinRegisterSize) {
  Circuit c;
  EXPECT_EQ(c.min_register_size(), 0u);
  c.append(GateType::kCnot, 2, 9);
  EXPECT_EQ(c.min_register_size(), 10u);
}

// min_register_size() is state kept by every mutator; it must always
// equal a scan of the operations.
std::size_t scanned_width(const Circuit& c) {
  std::size_t width = 0;
  for (const Operation& op : c.operations()) {
    width = std::max<std::size_t>(width, op.max_qubit() + 1);
  }
  return width;
}

TEST(CircuitTest, WidthTracksEveryMutator) {
  Circuit c;
  const auto expect_scan = [](const Circuit& circuit, const char* step) {
    EXPECT_EQ(circuit.min_register_size(), scanned_width(circuit)) << step;
  };
  expect_scan(c, "empty");
  c.append(GateType::kH, 3);
  expect_scan(c, "append");
  c.append(GateType::kCnot, 5, 1);
  expect_scan(c, "append two-qubit");
  c.append_in_new_slot(Operation{GateType::kX, 7});
  expect_scan(c, "append_in_new_slot");

  TimeSlot slot;
  slot.add(Operation{GateType::kCz, 2, 11});
  c.append_slot(slot);
  expect_scan(c, "append_slot");
  c.append_slot(SlotView{});
  expect_scan(c, "append_slot empty");
  c.append_slot(c.slot(2));  // a view into the same circuit
  expect_scan(c, "append_slot self view");

  Circuit other;
  other.append(GateType::kMeasureZ, 14);
  c.append_circuit(other);
  expect_scan(c, "append_circuit");
  c.append_circuit(c);
  expect_scan(c, "append_circuit self");
  EXPECT_EQ(c.min_register_size(), 15u);

  c.push_op(Operation{GateType::kSwap, 20, 4});
  c.push_op(Operation{GateType::kPrepZ, 2});
  c.close_slot();
  expect_scan(c, "push_op/close_slot");
  EXPECT_EQ(c.min_register_size(), 21u);

  const Circuit copy = c;
  expect_scan(copy, "copy");
  EXPECT_EQ(copy.min_register_size(), 21u);

  journal::SnapshotWriter out;
  out.write_circuit(c);
  journal::SnapshotReader in(out.bytes());
  const Circuit read = in.read_circuit();
  expect_scan(read, "read_circuit");
  EXPECT_EQ(read.min_register_size(), 21u);

  const Circuit parsed = from_qasm("qubits 40\nh q9\ncnot q2,q12\n");
  expect_scan(parsed, "from_qasm");
  EXPECT_EQ(parsed.min_register_size(), 13u);

  c.clear();
  expect_scan(c, "clear");
  EXPECT_EQ(c.min_register_size(), 0u);
  c.push_op(Operation{GateType::kH, 1});
  c.close_slot();
  expect_scan(c, "push_op after clear");
  EXPECT_EQ(c.min_register_size(), 2u);
}

TEST(CircuitTest, Equality) {
  Circuit a;
  a.append(GateType::kH, 0);
  a.append(GateType::kCnot, 0, 1);
  Circuit b;
  b.append(GateType::kH, 0);
  b.append(GateType::kCnot, 0, 1);
  EXPECT_EQ(a, b);
  b.append(GateType::kX, 0);
  EXPECT_FALSE(a == b);
}

TEST(CircuitTest, TwoQubitGateSpanningSlotBoundary) {
  Circuit c;
  c.append(GateType::kH, 0);
  c.append(GateType::kCnot, 0, 1);  // conflicts with H q0 -> new slot
  EXPECT_EQ(c.num_slots(), 2u);
  c.append(GateType::kH, 2);  // packs into slot 2 (no conflict)
  EXPECT_EQ(c.num_slots(), 2u);
}

}  // namespace
}  // namespace qpf
