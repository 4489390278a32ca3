// Tests for the symmetric depolarizing error model (§5.3.1).
#include "qec/depolarizing.h"

#include <gtest/gtest.h>

#include <cmath>

#include "circuit/error.h"

namespace qpf::qec {
namespace {

Circuit single_slot_of_h(std::size_t n) {
  Circuit c;
  TimeSlot slot;
  for (Qubit q = 0; q < n; ++q) {
    slot.add(Operation{GateType::kH, q});
  }
  c.append_slot(std::move(slot));
  return c;
}

TEST(DepolarizingTest, ZeroRateInjectsNothing) {
  DepolarizingModel model(0.0, 1);
  const Circuit in = single_slot_of_h(4);
  const Circuit out = model.inject(in, 4);
  EXPECT_EQ(out.num_operations(), in.num_operations());
  EXPECT_EQ(model.tally().total(), 0u);
}

TEST(DepolarizingTest, UnitRateAlwaysInjects) {
  DepolarizingModel model(1.0, 1);
  const Circuit out = model.inject(single_slot_of_h(4), 4);
  // 4 gates -> 4 single-qubit errors, no idles (all qubits busy).
  EXPECT_EQ(model.tally().single_qubit, 4u);
  EXPECT_EQ(model.tally().idle, 0u);
  EXPECT_EQ(out.num_operations(), 8u);
}

TEST(DepolarizingTest, IdleQubitsAreChargedErrors) {
  DepolarizingModel model(1.0, 1);
  Circuit c;
  c.append(GateType::kH, 0);  // qubits 1..3 idle in this slot
  (void)model.inject(c, 4);
  EXPECT_EQ(model.tally().idle, 3u);
}

TEST(DepolarizingTest, MeasurementErrorsAreXBeforeReadout) {
  DepolarizingModel model(1.0, 1);
  Circuit c;
  c.append(GateType::kMeasureZ, 0);
  const Circuit out = model.inject(c, 1);
  EXPECT_EQ(model.tally().measurement_flips, 1u);
  // Slot order: the X flip precedes the measurement.
  ASSERT_EQ(out.num_slots(), 2u);
  EXPECT_EQ(out.slot(0)[0].gate(), GateType::kX);
  EXPECT_EQ(out.slot(1)[0].gate(), GateType::kMeasureZ);
}

TEST(DepolarizingTest, TwoQubitGateErrorsTouchOperands) {
  DepolarizingModel model(1.0, 7);
  Circuit c;
  c.append(GateType::kCnot, 0, 1);
  const Circuit out = model.inject(c, 2);
  EXPECT_EQ(model.tally().two_qubit, 1u);
  // One or two error gates, only on qubits 0/1, in the trailing slot.
  const SlotView post = out.slot(out.num_slots() - 1);
  EXPECT_GE(post.size(), 1u);
  EXPECT_LE(post.size(), 2u);
  for (const Operation& op : post) {
    EXPECT_TRUE(is_pauli(op.gate()));
    EXPECT_LE(op.qubit(0), 1u);
  }
}

TEST(DepolarizingTest, RatesAreStatisticallyPlausible) {
  const double p = 0.1;
  DepolarizingModel model(p, 42);
  const std::size_t trials = 20000;
  Circuit c = single_slot_of_h(1);
  for (std::size_t i = 0; i < trials; ++i) {
    (void)model.inject(c, 1);
  }
  const double rate =
      static_cast<double>(model.tally().single_qubit) / trials;
  EXPECT_NEAR(rate, p, 0.01);  // ~5 sigma for 20k Bernoulli trials
}

TEST(DepolarizingTest, TwoQubitErrorsCoverBothSides) {
  // With p=1 the 15 combos should include cases touching either qubit
  // alone and both together.
  DepolarizingModel model(1.0, 99);
  Circuit c;
  c.append(GateType::kCnot, 0, 1);
  bool saw_single = false;
  bool saw_double = false;
  for (int i = 0; i < 200; ++i) {
    const Circuit out = model.inject(c, 2);
    const std::size_t errors = out.num_operations() - 1;
    saw_single = saw_single || errors == 1;
    saw_double = saw_double || errors == 2;
  }
  EXPECT_TRUE(saw_single);
  EXPECT_TRUE(saw_double);
}

TEST(DepolarizingTest, InvalidRateRejected) {
  EXPECT_THROW(DepolarizingModel(-0.1, 1), StackConfigError);
  EXPECT_THROW(DepolarizingModel(1.5, 1), StackConfigError);
  EXPECT_THROW(DepolarizingModel(std::nan(""), 1), StackConfigError);
}

TEST(DepolarizingTest, RegisterTooSmallRejected) {
  DepolarizingModel model(0.5, 1);
  Circuit c;
  c.append(GateType::kH, 5);
  EXPECT_THROW((void)model.inject(c, 2), StackConfigError);
}

TEST(DepolarizingTest, DeterministicUnderSeed) {
  Circuit c = single_slot_of_h(5);
  DepolarizingModel a(0.3, 77);
  DepolarizingModel b(0.3, 77);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(a.inject(c, 5), b.inject(c, 5));
  }
}

}  // namespace
}  // namespace qpf::qec
