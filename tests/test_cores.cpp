// Tests for the ChpCore and QxCore backends of the Core interface.
#include <gtest/gtest.h>

#include "circuit/error.h"

#include "arch/chp_core.h"
#include "arch/qx_core.h"
#include "journal/snapshot.h"

namespace qpf::arch {
namespace {

template <typename CoreT>
class CoreInterfaceTest : public ::testing::Test {
 protected:
  CoreT core_{7};
};

using CoreTypes = ::testing::Types<ChpCore, QxCore>;
TYPED_TEST_SUITE(CoreInterfaceTest, CoreTypes);

TYPED_TEST(CoreInterfaceTest, FreshRegisterIsAllZero) {
  this->core_.create_qubits(3);
  EXPECT_EQ(this->core_.num_qubits(), 3u);
  for (BinaryValue v : this->core_.get_state()) {
    EXPECT_EQ(v, BinaryValue::kZero);
  }
}

TYPED_TEST(CoreInterfaceTest, GatesMarkQubitsUnknown) {
  this->core_.create_qubits(2);
  Circuit c;
  c.append(GateType::kH, 0);
  run(this->core_, c);
  const BinaryState state = this->core_.get_state();
  EXPECT_EQ(state[0], BinaryValue::kUnknown);
  EXPECT_EQ(state[1], BinaryValue::kZero);
}

TYPED_TEST(CoreInterfaceTest, IdentityGateKeepsBinaryValue) {
  this->core_.create_qubits(1);
  Circuit c;
  c.append(GateType::kI, 0);
  run(this->core_, c);
  EXPECT_EQ(this->core_.get_state()[0], BinaryValue::kZero);
}

TYPED_TEST(CoreInterfaceTest, MeasurementRecordsResult) {
  this->core_.create_qubits(2);
  Circuit c;
  c.append(GateType::kX, 0);
  c.append(GateType::kMeasureZ, 0);
  c.append(GateType::kMeasureZ, 1);
  run(this->core_, c);
  const BinaryState state = this->core_.get_state();
  EXPECT_EQ(state[0], BinaryValue::kOne);
  EXPECT_EQ(state[1], BinaryValue::kZero);
}

TYPED_TEST(CoreInterfaceTest, ResetRestoresZero) {
  this->core_.create_qubits(1);
  Circuit c;
  c.append(GateType::kX, 0);
  c.append(GateType::kPrepZ, 0);
  run(this->core_, c);
  EXPECT_EQ(this->core_.get_state()[0], BinaryValue::kZero);
}

TYPED_TEST(CoreInterfaceTest, BellStateIsCorrelated) {
  this->core_.create_qubits(2);
  Circuit c;
  c.append(GateType::kH, 0);
  c.append(GateType::kCnot, 0, 1);
  c.append(GateType::kMeasureZ, 0);
  c.append(GateType::kMeasureZ, 1);
  run(this->core_, c);
  const BinaryState state = this->core_.get_state();
  EXPECT_EQ(state[0], state[1]);
  EXPECT_NE(state[0], BinaryValue::kUnknown);
}

TYPED_TEST(CoreInterfaceTest, AddValidatesRegisterSize) {
  this->core_.create_qubits(2);
  Circuit c;
  c.append(GateType::kH, 5);
  EXPECT_THROW(this->core_.add(c), StackConfigError);
}

TYPED_TEST(CoreInterfaceTest, ExecuteWithoutQubitsThrows) {
  EXPECT_THROW(this->core_.execute(), std::logic_error);
}

TYPED_TEST(CoreInterfaceTest, RemoveQubitsClearsRegister) {
  this->core_.create_qubits(2);
  this->core_.remove_qubits();
  EXPECT_EQ(this->core_.num_qubits(), 0u);
  EXPECT_TRUE(this->core_.get_state().empty());
}

TYPED_TEST(CoreInterfaceTest, QueueIsFifoAcrossAdds) {
  this->core_.create_qubits(1);
  Circuit flip;
  flip.append(GateType::kX, 0);
  Circuit measure;
  measure.append(GateType::kMeasureZ, 0);
  this->core_.add(flip);
  this->core_.add(measure);
  this->core_.execute();
  EXPECT_EQ(this->core_.get_state()[0], BinaryValue::kOne);
}

TEST(ChpCoreTest, QuantumStateUnsupported) {
  ChpCore core;
  core.create_qubits(2);
  EXPECT_FALSE(core.get_quantum_state().has_value());
  EXPECT_NE(core.tableau(), nullptr);
}

TEST(ChpCoreTest, NonCliffordRejectedAtExecute) {
  ChpCore core;
  core.create_qubits(1);
  Circuit c;
  c.append(GateType::kT, 0);
  core.add(c);
  EXPECT_THROW(core.execute(), std::invalid_argument);
  // The queue was drained; the core remains usable.
  Circuit ok;
  ok.append(GateType::kMeasureZ, 0);
  EXPECT_NO_THROW(run(core, ok));
}

TEST(ChpCoreTest, RejectedSnapshotLeavesTheCoreAsItWas) {
  // A chp-core section whose seed and tableau are valid but whose
  // binary values are not: the load must fail before it commits
  // anything, so the core still saves the bytes it saved before.
  ChpCore core(7);
  core.create_qubits(2);
  Circuit flip;
  flip.append(GateType::kX, 0);
  flip.append(GateType::kMeasureZ, 1);
  run(core, flip);
  journal::SnapshotWriter before;
  core.save_state(before);

  const stab::Tableau other(2, 99);
  journal::SnapshotWriter bad;
  bad.tag("chp-core");
  bad.write_u64(99);
  bad.write_bool(true);
  other.save(bad);
  bad.write_size(2);
  bad.write_u8(0);
  bad.write_u8(7);  // not a BinaryValue
  bad.write_size(0);
  journal::SnapshotReader in(bad.bytes());
  EXPECT_THROW(core.load_state(in), CheckpointError);

  journal::SnapshotWriter after;
  core.save_state(after);
  EXPECT_EQ(after.bytes(), before.bytes());
}

TEST(QxCoreTest, QuantumStateExposed) {
  QxCore core;
  core.create_qubits(2);
  Circuit c;
  c.append(GateType::kH, 0);
  c.append(GateType::kCnot, 0, 1);
  run(core, c);
  const auto state = core.get_quantum_state();
  ASSERT_TRUE(state.has_value());
  EXPECT_NEAR(std::norm(state->amplitude(0)), 0.5, 1e-12);
  EXPECT_NEAR(std::norm(state->amplitude(3)), 0.5, 1e-12);
}

TEST(QxCoreTest, TGateSupported) {
  QxCore core;
  core.create_qubits(1);
  Circuit c;
  c.append(GateType::kT, 0);
  EXPECT_NO_THROW(run(core, c));
}

}  // namespace
}  // namespace qpf::arch
