// Tests for the classical control-path fault subsystem: the
// ClassicalFaultLayer injector, the ValidatingLayer checker, and the
// full LerStack fault campaign.
#include <gtest/gtest.h>

#include <cmath>

#include "arch/chp_core.h"
#include "arch/classical_fault_layer.h"
#include "arch/control_stack.h"
#include "arch/counter_layer.h"
#include "arch/validating_layer.h"
#include "circuit/error.h"

namespace qpf::arch {
namespace {

using qec::CheckType;

Circuit bell_plus_measure() {
  Circuit c;
  c.append(GateType::kH, 0);
  c.append(GateType::kCnot, 0, 1);
  c.append_in_new_slot(Operation{GateType::kMeasureZ, 0});
  c.append_in_new_slot(Operation{GateType::kMeasureZ, 1});
  return c;
}

TEST(ClassicalFaultLayerTest, RatesValidated) {
  ChpCore core;
  EXPECT_THROW(
      ClassicalFaultLayer(&core, ClassicalFaultRates{-0.1, 0, 0, 0}, 1),
      StackConfigError);
  EXPECT_THROW(
      ClassicalFaultLayer(&core, ClassicalFaultRates{0, 1.5, 0, 0}, 1),
      StackConfigError);
  EXPECT_THROW(
      ClassicalFaultLayer(&core, ClassicalFaultRates::uniform(2.0), 1),
      StackConfigError);
  EXPECT_THROW(ClassicalFaultLayer(
                   &core, ClassicalFaultRates{0, 0, 0, std::nan("")}, 1),
               StackConfigError);
  EXPECT_NO_THROW(
      ClassicalFaultLayer(&core, ClassicalFaultRates::uniform(1.0), 1));
}

TEST(ClassicalFaultLayerTest, ZeroRatesForwardVerbatim) {
  ChpCore plain(3);
  ChpCore faulted(3);
  CounterLayer counter(&faulted);
  ClassicalFaultLayer layer(&counter, ClassicalFaultRates{}, 99);
  plain.create_qubits(2);
  layer.create_qubits(2);
  const Circuit c = bell_plus_measure();
  run(plain, c);
  layer.add(c);
  layer.execute();
  EXPECT_EQ(layer.tally().total(), 0u);
  EXPECT_EQ(counter.counters().operations, c.num_operations());
  EXPECT_EQ(counter.counters().time_slots, c.num_slots());
  // Same seed, untouched stream: bit-identical readout.
  const BinaryState a = plain.get_state();
  const BinaryState b = layer.get_state();
  ASSERT_EQ(a.size(), b.size());
  for (Qubit q = 0; q < a.size(); ++q) {
    EXPECT_EQ(a[q], b[q]);
  }
}

TEST(ClassicalFaultLayerTest, DropRateOneRemovesEveryOperation) {
  ChpCore core(1);
  CounterLayer counter(&core);
  ClassicalFaultLayer layer(&counter, ClassicalFaultRates{1.0, 0, 0, 0}, 5);
  layer.create_qubits(2);
  const Circuit c = bell_plus_measure();
  layer.add(c);
  EXPECT_EQ(layer.tally().dropped, c.num_operations());
  EXPECT_EQ(counter.counters().operations, 0u);
  EXPECT_EQ(counter.counters().time_slots, 0u);  // empty slots are elided
}

TEST(ClassicalFaultLayerTest, DuplicateRateOneEchoesEveryOperation) {
  ChpCore core(1);
  CounterLayer counter(&core);
  ClassicalFaultLayer layer(&counter, ClassicalFaultRates{0, 1.0, 0, 0}, 5);
  layer.create_qubits(2);
  const Circuit c = bell_plus_measure();
  layer.add(c);
  layer.execute();
  EXPECT_EQ(layer.tally().duplicated, c.num_operations());
  EXPECT_EQ(counter.counters().operations, 2 * c.num_operations());
  // Each slot grows an echo slot behind it.
  EXPECT_EQ(counter.counters().time_slots, 2 * c.num_slots());
}

TEST(ClassicalFaultLayerTest, ReorderKeepsQubitDisjointSemantics) {
  // Operations within a slot are qubit-disjoint, so swapping them is a
  // pure stream-order fault: the final state must be unchanged.
  ChpCore plain(21);
  ChpCore faulted(21);
  ClassicalFaultLayer layer(&faulted, ClassicalFaultRates{0, 0, 1.0, 0}, 5);
  plain.create_qubits(3);
  layer.create_qubits(3);
  Circuit c;
  c.append(GateType::kX, 0);
  c.append(GateType::kX, 1);
  c.append(GateType::kH, 2);
  c.append_in_new_slot(Operation{GateType::kMeasureZ, 0});
  c.append(GateType::kMeasureZ, 1);
  run(plain, c);
  layer.add(c);
  layer.execute();
  EXPECT_GT(layer.tally().reordered, 0u);
  EXPECT_EQ(layer.get_state()[0], plain.get_state()[0]);
  EXPECT_EQ(layer.get_state()[1], plain.get_state()[1]);
}

TEST(ClassicalFaultLayerTest, ReadoutFlipInvertsKnownBits) {
  ChpCore core(3);
  ClassicalFaultLayer layer(&core, ClassicalFaultRates{0, 0, 0, 1.0}, 5);
  layer.create_qubits(2);
  Circuit c;
  c.append(GateType::kX, 0);
  c.append_in_new_slot(Operation{GateType::kMeasureZ, 0});
  layer.add(c);
  layer.execute();
  const BinaryState state = layer.get_state();
  // Raw |1> on q0 flips to 0; the core's known |0> on q1 flips to 1.
  EXPECT_EQ(state[0], BinaryValue::kZero);
  EXPECT_EQ(state[1], BinaryValue::kOne);
  EXPECT_EQ(layer.tally().readout_flips, 2u);
}

TEST(ClassicalFaultLayerTest, BypassSuppressesInjection) {
  ChpCore core(1);
  CounterLayer counter(&core);
  ClassicalFaultLayer layer(&counter, ClassicalFaultRates::uniform(1.0), 5);
  layer.create_qubits(2);
  layer.set_bypass(true);
  const Circuit c = bell_plus_measure();
  layer.add(c);
  layer.execute();
  EXPECT_EQ(layer.tally().total(), 0u);
  EXPECT_EQ(counter.counters().operations, c.num_operations());
  const BinaryState state = layer.get_state();
  EXPECT_NE(state[0], BinaryValue::kUnknown);
}

TEST(ValidatingLayerTest, FaultFreeRunProducesZeroReports) {
  ChpCore core(17);
  PauliFrameLayer frame(&core);
  ValidatingLayer validator(&frame, &frame);
  validator.create_qubits(3);
  Circuit c;
  c.append(GateType::kX, 0);
  c.append(GateType::kZ, 1);
  c.append_in_new_slot(Operation{GateType::kH, 0});
  c.append(GateType::kCnot, 1, 2);
  validator.add(c);
  Circuit m;
  m.append(GateType::kMeasureZ, 0);
  m.append(GateType::kMeasureZ, 1);
  validator.add(m);
  validator.execute();
  (void)validator.get_state();
  EXPECT_TRUE(validator.reports().empty());
}

TEST(ValidatingLayerTest, FlagsCorruptedFrameRecord) {
  ChpCore core(17);
  PauliFrameLayer frame(&core);  // unprotected: corruption persists
  ValidatingLayer validator(&frame, &frame);
  validator.create_qubits(2);
  Circuit first;
  first.append(GateType::kX, 0);
  validator.add(first);
  EXPECT_TRUE(validator.reports().empty());
  frame.frame().corrupt_record(0, pf::PauliRecord::kZ);
  Circuit next;
  next.append(GateType::kH, 1);  // does not touch the corrupted record
  validator.add(next);
  ASSERT_EQ(validator.reports().size(), 1u);
  EXPECT_EQ(validator.reports()[0].kind, FaultReport::Kind::kRecordMismatch);
  EXPECT_NE(validator.reports()[0].detail.find("qubit 0"), std::string::npos);
  // The reference adopts the observed value: one corruption, one report.
  Circuit more;
  more.append(GateType::kH, 1);
  validator.add(more);
  EXPECT_EQ(validator.reports().size(), 1u);
  validator.clear_reports();
  EXPECT_TRUE(validator.reports().empty());
}

TEST(ValidatingLayerTest, ReportKindNames) {
  EXPECT_EQ(name(FaultReport::Kind::kRecordMismatch), "record-mismatch");
  EXPECT_EQ(name(FaultReport::Kind::kInvalidRecord), "invalid-record");
  EXPECT_EQ(name(FaultReport::Kind::kRegisterMismatch), "register-mismatch");
  EXPECT_EQ(name(FaultReport::Kind::kSlotGrowth), "slot-growth");
  EXPECT_EQ(name(FaultReport::Kind::kStateSizeMismatch),
            "state-size-mismatch");
}

TEST(LerStackTest, ZeroFaultConfigBuildsNoExtraLayers) {
  LerStack::Config config;
  config.physical_error_rate = 0.0;
  LerStack stack(config);
  EXPECT_FALSE(stack.has_classical_faults());
  EXPECT_FALSE(stack.has_validator());
  EXPECT_TRUE(stack.has_pauli_frame());
  EXPECT_EQ(stack.pauli_frame_layer()->protection(), pf::Protection::kNone);
}

TEST(LerStackTest, ProtectionWithoutFrameRejected) {
  LerStack::Config config;
  config.with_pauli_frame = false;
  config.frame_protection = pf::Protection::kVote;
  EXPECT_THROW(LerStack{config}, StackConfigError);
}

TEST(LerStackTest, FaultCampaignDetectsAndRecovers) {
  // Full-stack fault campaign: classical stream/readout faults plus
  // periodic frame-memory corruption, vote-protected frame, validator
  // armed.  The stack must stay usable end to end: no throws, faults
  // detected, logical stabilizer still readable.
  LerStack::Config config;
  config.physical_error_rate = 0.0;
  config.seed = 23;
  // No drop faults here: dropping an ESM measurement legitimately kills
  // the decoder's input contract (that failure mode is exercised at the
  // layer level instead).
  config.classical_faults = ClassicalFaultRates{0.0, 0.01, 0.01, 0.01};
  config.frame_protection = pf::Protection::kVote;
  config.validate = true;
  LerStack stack(config);
  ASSERT_TRUE(stack.has_classical_faults());
  ASSERT_TRUE(stack.has_validator());
  stack.set_diagnostic_mode(true);
  stack.ninja().initialize(0, CheckType::kZ);
  stack.set_diagnostic_mode(false);
  for (int w = 0; w < 30; ++w) {
    if (w % 5 == 2) {
      // A classical bit flip strikes the frame memory mid-campaign.
      stack.pauli_frame_layer()->frame().corrupt_record(
          static_cast<Qubit>(w % 9), pf::PauliRecord::kXZ);
    }
    ASSERT_NO_THROW(stack.ninja().run_window(0)) << "window " << w;
  }
  // Injection happened and the guarded frame noticed corruption.
  EXPECT_GT(stack.classical_fault_layer()->tally().total(), 0u);
  const pf::FrameHealth& health = stack.pauli_frame_layer()->frame().health();
  EXPECT_GT(health.checks, 0u);
  EXPECT_GT(health.detected, 0u);
  // The stack is still coherent: diagnostics run and yield a valid sign.
  stack.set_diagnostic_mode(true);
  const int sign = stack.ninja().measure_logical_stabilizer(0, CheckType::kZ);
  EXPECT_TRUE(sign == +1 || sign == -1);
}

TEST(LerStackTest, DiagnosticModeBypassesFaultInjection) {
  LerStack::Config config;
  config.physical_error_rate = 0.0;
  config.classical_faults = ClassicalFaultRates::uniform(1.0);
  LerStack stack(config);
  stack.set_diagnostic_mode(true);
  // With the injector bypassed even rate-1.0 faults never fire.
  stack.ninja().initialize(0, CheckType::kZ);
  EXPECT_EQ(stack.classical_fault_layer()->tally().total(), 0u);
  EXPECT_EQ(stack.ninja().measure_logical_stabilizer(0, CheckType::kZ), +1);
}

}  // namespace
}  // namespace qpf::arch
