// Tests for the generic layer machinery: pass-through, counters, error
// injection and the Pauli frame layer.
#include <gtest/gtest.h>

#include "circuit/error.h"

#include "arch/counter_layer.h"
#include "arch/error_layer.h"
#include "arch/pauli_frame_layer.h"
#include "arch/qx_core.h"

namespace qpf::arch {
namespace {

TEST(LayerTest, NullLowerRejected) {
  EXPECT_THROW(CounterLayer{nullptr}, StackConfigError);
}

TEST(CounterLayerTest, CountsOperationsSlotsCircuits) {
  QxCore core;
  CounterLayer counter(&core);
  counter.create_qubits(2);
  Circuit c;
  c.append(GateType::kH, 0);
  c.append(GateType::kX, 0);
  counter.add(c);
  counter.add(c);
  counter.execute();
  EXPECT_EQ(counter.counters().operations, 4u);
  EXPECT_EQ(counter.counters().time_slots, 4u);
  EXPECT_EQ(counter.counters().circuits, 2u);
  counter.reset_counters();
  EXPECT_EQ(counter.counters().operations, 0u);
}

TEST(CounterLayerTest, BypassSuspendsCounting) {
  QxCore core;
  CounterLayer counter(&core);
  counter.create_qubits(1);
  counter.set_bypass(true);
  Circuit c;
  c.append(GateType::kH, 0);
  counter.add(c);
  EXPECT_EQ(counter.counters().operations, 0u);
  counter.set_bypass(false);
  counter.add(c);
  EXPECT_EQ(counter.counters().operations, 1u);
}

TEST(ErrorLayerTest, ZeroRatePassesCircuitThrough) {
  QxCore core;
  CounterLayer below(&core);
  ErrorLayer error(&below, 0.0, 5);
  error.create_qubits(2);
  Circuit c;
  c.append(GateType::kH, 0);
  error.add(c);
  EXPECT_EQ(below.counters().operations, 1u);
}

TEST(ErrorLayerTest, InjectsAtFullRate) {
  QxCore core;
  CounterLayer below(&core);
  ErrorLayer error(&below, 1.0, 5);
  error.create_qubits(2);
  Circuit c;
  c.append(GateType::kH, 0);
  error.add(c);
  // 1 gate + 1 gate error + 1 idle error on qubit 1.
  EXPECT_EQ(below.counters().operations, 3u);
  EXPECT_EQ(error.tally().total(), 2u);
}

TEST(ErrorLayerTest, BypassDisablesInjection) {
  QxCore core;
  CounterLayer below(&core);
  ErrorLayer error(&below, 1.0, 5);
  error.create_qubits(2);
  error.set_bypass(true);
  Circuit c;
  c.append(GateType::kH, 0);
  error.add(c);
  EXPECT_EQ(below.counters().operations, 1u);
  EXPECT_EQ(error.tally().total(), 0u);
}

TEST(PauliFrameLayerTest, RequiresAllocationFirst) {
  QxCore core;
  PauliFrameLayer frame(&core);
  Circuit c;
  EXPECT_THROW(frame.add(c), std::logic_error);
}

TEST(PauliFrameLayerTest, AbsorbsPaulisAndCorrectsMeasurement) {
  QxCore core;
  CounterLayer below(&core);
  PauliFrameLayer frame(&below);
  frame.create_qubits(1);
  Circuit c;
  c.append(GateType::kX, 0);
  c.append(GateType::kMeasureZ, 0);
  frame.add(c);
  frame.execute();
  // Only the measurement reached the core...
  EXPECT_EQ(below.counters().operations, 1u);
  // ...yet the corrected readout reports the X flip.
  EXPECT_EQ(frame.get_state()[0], BinaryValue::kOne);
  // The raw device state below still shows |0>.
  EXPECT_EQ(core.get_state()[0], BinaryValue::kZero);
}

TEST(PauliFrameLayerTest, FlushAppliesPendingRecords) {
  QxCore core;
  PauliFrameLayer frame(&core);
  frame.create_qubits(1);
  Circuit c;
  c.append(GateType::kX, 0);
  frame.add(c);
  frame.execute();
  EXPECT_FALSE(frame.frame().clean());
  frame.flush();
  EXPECT_TRUE(frame.frame().clean());
  const auto state = core.get_quantum_state();
  ASSERT_TRUE(state.has_value());
  EXPECT_NEAR(std::norm(state->amplitude(1)), 1.0, 1e-12);
}

TEST(PauliFrameLayerTest, NonCliffordTriggersFlushThroughStack) {
  QxCore core;
  CounterLayer below(&core);
  PauliFrameLayer frame(&below);
  frame.create_qubits(1);
  Circuit c;
  c.append(GateType::kX, 0);
  c.append(GateType::kT, 0);
  frame.add(c);
  frame.execute();
  // X flushed physically before the T gate: X + T = 2 ops.
  EXPECT_EQ(below.counters().operations, 2u);
  EXPECT_TRUE(frame.frame().clean());
}

TEST(PauliFrameLayerTest, CircuitWiderThanRegisterLeavesFrameUntouched) {
  QxCore core;
  CounterLayer below(&core);
  PauliFrameLayer frame(&below);
  frame.create_qubits(2);
  Circuit c;
  c.append(GateType::kX, 0);  // would be absorbed before H q5 fails
  c.append(GateType::kH, 5);
  EXPECT_THROW(frame.add(c), StackConfigError);
  EXPECT_TRUE(frame.frame().clean());
  EXPECT_EQ(frame.frame().stats().input_gates, 0u);
  EXPECT_EQ(below.counters().circuits, 0u);
}

TEST(PauliFrameLayerTest, CreateQubitsResetsFrame) {
  QxCore core;
  PauliFrameLayer frame(&core);
  frame.create_qubits(1);
  frame.frame().set_record(0, pf::PauliRecord::kXZ);
  frame.remove_qubits();
  frame.create_qubits(2);
  EXPECT_TRUE(frame.frame().clean());
  EXPECT_EQ(frame.frame().num_qubits(), 2u);
}

TEST(StackTest, LayersComposeTransparently) {
  // Counter -> Error(0) -> Counter -> PF -> Counter stack sanity run.
  QxCore core;
  CounterLayer bottom(&core);
  ErrorLayer error(&bottom, 0.0, 1);
  CounterLayer mid(&error);
  PauliFrameLayer frame(&mid);
  CounterLayer top(&frame);
  top.create_qubits(2);
  Circuit c;
  c.append(GateType::kH, 0);
  c.append(GateType::kCnot, 0, 1);
  c.append(GateType::kX, 1);
  c.append(GateType::kMeasureZ, 0);
  c.append(GateType::kMeasureZ, 1);
  top.add(c);
  top.execute();
  EXPECT_EQ(top.counters().operations, 5u);
  EXPECT_EQ(mid.counters().operations, 4u);  // X absorbed by the frame
  EXPECT_EQ(bottom.counters().operations, 4u);
  const BinaryState state = top.get_state();
  EXPECT_NE(state[0], BinaryValue::kUnknown);
  // Frame-corrected: the Bell pair correlation is inverted by the X.
  EXPECT_NE(state[0], state[1]);
}

}  // namespace
}  // namespace qpf::arch
