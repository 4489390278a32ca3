// Tests for the Pauli frame stream rewriting (Table 3.1 / §3.4 example)
// and the §5.2.2 random-circuit equivalence property.
#include "core/pauli_frame.h"

#include <gtest/gtest.h>

#include <random>

#include "circuit/error.h"
#include "circuit/random.h"
#include "seed_support.h"
#include "statevector/simulator.h"

namespace qpf::pf {
namespace {

TEST(PauliFrameTest, StartsClean) {
  const PauliFrame frame(4);
  EXPECT_EQ(frame.num_qubits(), 4u);
  EXPECT_TRUE(frame.clean());
  EXPECT_EQ(frame.record(0), PauliRecord::kI);
}

TEST(PauliFrameTest, PaulisAreAbsorbed) {
  PauliFrame frame(2);
  Circuit c;
  c.append(GateType::kX, 0);
  c.append(GateType::kZ, 1);
  const Circuit out = frame.process(c);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(frame.record(0), PauliRecord::kX);
  EXPECT_EQ(frame.record(1), PauliRecord::kZ);
  EXPECT_EQ(frame.stats().paulis_absorbed, 2u);
}

TEST(PauliFrameTest, IdentityIsAbsorbedWithoutTracking) {
  PauliFrame frame(1);
  Circuit c;
  c.append(GateType::kI, 0);
  EXPECT_TRUE(frame.process(c).empty());
  EXPECT_TRUE(frame.clean());
}

TEST(PauliFrameTest, CliffordsForwardAndMapRecords) {
  PauliFrame frame(1);
  frame.set_record(0, PauliRecord::kX);
  Circuit c;
  c.append(GateType::kH, 0);
  const Circuit out = frame.process(c);
  EXPECT_EQ(out.num_operations(), 1u);
  EXPECT_EQ(frame.record(0), PauliRecord::kZ);
}

TEST(PauliFrameTest, ResetClearsRecordAndForwards) {
  PauliFrame frame(1);
  frame.set_record(0, PauliRecord::kXZ);
  Circuit c;
  c.append(GateType::kPrepZ, 0);
  const Circuit out = frame.process(c);
  EXPECT_EQ(out.num_operations(), 1u);
  EXPECT_EQ(frame.record(0), PauliRecord::kI);
}

TEST(PauliFrameTest, MeasurementForwardsAndCorrectsResult) {
  PauliFrame frame(1);
  frame.set_record(0, PauliRecord::kX);
  Circuit c;
  c.append(GateType::kMeasureZ, 0);
  EXPECT_EQ(frame.process(c).num_operations(), 1u);
  EXPECT_TRUE(frame.correct_measurement(0, false));
  EXPECT_FALSE(frame.correct_measurement(0, true));
}

TEST(PauliFrameTest, NonCliffordFlushesBeforeGate) {
  PauliFrame frame(1);
  frame.set_record(0, PauliRecord::kXZ);
  Circuit c;
  c.append(GateType::kT, 0);
  const Circuit out = frame.process(c);
  // Expect: X, Z flush gates (own slots), then T.
  ASSERT_EQ(out.num_operations(), 3u);
  std::vector<GateType> gates;
  for (const SlotView slot : out) {
    for (const Operation& op : slot) {
      gates.push_back(op.gate());
    }
  }
  EXPECT_EQ(gates, (std::vector<GateType>{GateType::kX, GateType::kZ,
                                          GateType::kT}));
  EXPECT_EQ(frame.record(0), PauliRecord::kI);
  EXPECT_EQ(frame.stats().flush_gates_emitted, 2u);
}

TEST(PauliFrameTest, FlushAllEmitsPendingPaulis) {
  PauliFrame frame(3);
  frame.set_record(0, PauliRecord::kX);
  frame.set_record(2, PauliRecord::kXZ);
  const Circuit out = frame.flush_all();
  EXPECT_EQ(out.num_operations(), 3u);
  EXPECT_TRUE(frame.clean());
}

TEST(PauliFrameTest, SavedSlotStatistics) {
  PauliFrame frame(2);
  Circuit c;
  // Slot 1: two Paulis only -> dropped entirely.
  {
    TimeSlot slot;
    slot.add(Operation{GateType::kX, 0});
    slot.add(Operation{GateType::kZ, 1});
    c.append_slot(std::move(slot));
  }
  // Slot 2: a Clifford -> kept.
  c.append_in_new_slot(Operation{GateType::kH, 0});
  const Circuit out = frame.process(c);
  EXPECT_EQ(out.num_slots(), 1u);
  EXPECT_EQ(frame.stats().input_slots, 2u);
  EXPECT_EQ(frame.stats().output_slots, 1u);
  EXPECT_DOUBLE_EQ(frame.stats().slots_saved_fraction(), 0.5);
  EXPECT_DOUBLE_EQ(frame.stats().gates_saved_fraction(), 2.0 / 3.0);
}

/// The record rules op by op through the public guarded accessors: one
/// read and one write per operand, as the frame's own rules make.
void reference_step(PauliFrame& frame, const Operation& op) {
  const Qubit a = op.control();
  const Qubit b = op.target();
  switch (op.gate()) {
    case GateType::kPrepZ:
      frame.set_record(a, PauliRecord::kI);
      return;
    case GateType::kMeasureZ:
      return;
    case GateType::kH:
      frame.set_record(a, map_h(frame.record(a)));
      return;
    case GateType::kS:
    case GateType::kSdag:
      frame.set_record(a, map_s(frame.record(a)));
      return;
    default: {
      const PauliRecord ra = frame.record(a);
      const PauliRecord rb = frame.record(b);
      const auto [na, nb] = op.gate() == GateType::kCnot ? map_cnot(ra, rb)
                            : op.gate() == GateType::kCz ? map_cz(ra, rb)
                                                         : map_swap(ra, rb);
      frame.set_record(a, na);
      frame.set_record(b, nb);
      return;
    }
  }
}

TEST(PauliFrameTest, PauliFreeCircuitIsReturnedUntouched) {
  static constexpr GateType kOne[] = {GateType::kH, GateType::kS,
                                      GateType::kSdag, GateType::kPrepZ,
                                      GateType::kMeasureZ};
  static constexpr GateType kTwo[] = {GateType::kCnot, GateType::kCz,
                                      GateType::kSwap};
  constexpr std::size_t kQubits = 6;
  const std::uint64_t seed = test::test_seed(41);
  QPF_ANNOUNCE_SEED(seed);
  std::mt19937_64 rng(seed);
  for (const Protection protection :
       {Protection::kNone, Protection::kParity, Protection::kVote}) {
    for (int trial = 0; trial < 40; ++trial) {
      Circuit circuit{"pauli-free"};
      for (int k = 0; k < 30; ++k) {
        const auto q = static_cast<Qubit>(rng() % kQubits);
        if (rng() % 3 == 0) {
          const auto r = static_cast<Qubit>((q + 1 + rng() % (kQubits - 1)) %
                                            kQubits);
          circuit.append(kTwo[rng() % 3], q, r);
        } else {
          circuit.append(kOne[rng() % 5], q);
        }
      }
      PauliFrame frame(kQubits, protection);
      PauliFrame reference(kQubits, protection);
      for (Qubit q = 0; q < kQubits; ++q) {
        const auto r = static_cast<PauliRecord>(rng() & 3);
        frame.set_record(q, r);
        reference.set_record(q, r);
      }
      if (protection != Protection::kNone && trial % 2 == 0) {
        // A corrupted primary bank: detected, and under vote repaired.
        const auto q = static_cast<Qubit>(rng() % kQubits);
        const auto r = static_cast<PauliRecord>(
            static_cast<std::uint8_t>(frame.record(q)) ^ 1);
        frame.corrupt_record(q, r);
        reference.corrupt_record(q, r);
      }
      frame.reset_health();
      reference.reset_health();
      Circuit out{"untouched"};
      out.append(GateType::kX, 0);
      const Circuit before = out;
      const Circuit& ran = frame.process(circuit, out);
      EXPECT_EQ(&ran, &circuit);
      EXPECT_EQ(out, before);
      EXPECT_EQ(out.name(), "untouched");
      for (const Operation& op : circuit.operations()) {
        reference_step(reference, op);
      }
      const FrameHealth& h = frame.health();
      const FrameHealth& rh = reference.health();
      EXPECT_EQ(h.checks, rh.checks);
      EXPECT_EQ(h.detected, rh.detected);
      EXPECT_EQ(h.corrected, rh.corrected);
      EXPECT_EQ(h.uncorrectable, rh.uncorrectable);
      EXPECT_EQ(h.recovery_resets, rh.recovery_resets);
      if (protection != Protection::kNone) {
        EXPECT_GT(h.checks, 0u);
      }
      for (Qubit q = 0; q < kQubits; ++q) {
        EXPECT_EQ(frame.record(q), reference.record(q))
            << name(protection) << " trial " << trial << " qubit " << q;
      }
      const FrameStats& stats = frame.stats();
      EXPECT_EQ(stats.input_gates, circuit.num_operations());
      EXPECT_EQ(stats.output_gates, circuit.num_operations());
      EXPECT_EQ(stats.input_slots, circuit.num_slots());
      EXPECT_EQ(stats.output_slots, circuit.num_slots());
      EXPECT_EQ(stats.paulis_absorbed, 0u);
      EXPECT_EQ(stats.flush_gates_emitted, 0u);
    }
  }
}

TEST(PauliFrameTest, CircuitWithAPauliIsRewritten) {
  PauliFrame frame(2);
  Circuit c;
  c.append(GateType::kH, 0);
  c.append(GateType::kX, 1);
  Circuit out;
  const Circuit& ran = frame.process(c, out);
  EXPECT_EQ(&ran, &out);
  EXPECT_EQ(out.num_operations(), 1u);
  EXPECT_EQ(frame.record(1), PauliRecord::kX);
}

TEST(PauliFrameTest, TrackRejectsNonPauli) {
  PauliFrame frame(1);
  EXPECT_THROW(frame.track(GateType::kH, 0), StackConfigError);
}

// §3.4 worked example: errors tracked on the ninja star data qubits.
TEST(PauliFrameTest, ThesisWorkedExample) {
  PauliFrame frame(9);
  // Fig 3.6: X error detected on D2, Z error on D4.
  frame.track(GateType::kX, 2);
  frame.track(GateType::kZ, 4);
  EXPECT_EQ(frame.record(2), PauliRecord::kX);
  EXPECT_EQ(frame.record(4), PauliRecord::kZ);
  // Fig 3.7: a combined XZ error on D4; the Z entries cancel pairwise
  // (up to global phase) leaving an X record, as the figure shows.
  frame.track(GateType::kX, 4);
  frame.track(GateType::kZ, 4);
  EXPECT_EQ(frame.record(4), PauliRecord::kX);
  // Fig 3.8: logical Hadamard maps X entries to Z entries.
  Circuit h;
  for (Qubit q = 0; q < 9; ++q) {
    h.append(GateType::kH, q);
  }
  (void)frame.process(h);
  EXPECT_EQ(frame.record(2), PauliRecord::kZ);
  EXPECT_EQ(frame.record(4), PauliRecord::kZ);
  // Fig 3.9: Z records do not modify measurement results.
  for (Qubit q = 0; q < 9; ++q) {
    EXPECT_FALSE(frame.correct_measurement(q, false)) << q;
  }
}

// §5.2.2 equivalence: executing a random circuit with the frame and then
// flushing yields the same state (up to global phase) as without it.
class RandomCircuitEquivalence
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomCircuitEquivalence, FrameDoesNotChangeFinalState) {
  const std::uint64_t seed = GetParam();
  RandomCircuitGenerator gen(seed);
  RandomCircuitOptions options;
  options.num_qubits = 5;
  options.num_gates = 200;  // includes T / T-dagger -> exercises flushes
  const Circuit circuit = gen.generate(options);

  sv::Simulator reference(5, 1);
  reference.execute(circuit);

  sv::Simulator with_frame(5, 1);
  PauliFrame frame(5);
  const Circuit filtered = frame.process(circuit);
  with_frame.execute(filtered);
  with_frame.execute(frame.flush_all());

  EXPECT_TRUE(
      with_frame.state().equals_up_to_global_phase(reference.state(), 1e-9));
  // The frame must have actually filtered something on a Pauli-rich set.
  EXPECT_LE(filtered.num_operations() + frame.stats().flush_gates_emitted,
            circuit.num_operations() + frame.stats().flush_gates_emitted);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCircuitEquivalence,
                         ::testing::Range<std::uint64_t>(1, 26));

}  // namespace
}  // namespace qpf::pf
