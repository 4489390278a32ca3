// Cross-component equivalence properties:
//  * the PauliArbiter datapath and PauliFrame::process must forward the
//    same operation stream and leave identical records;
//  * QASM round trips for circuits with preparation and measurement;
//  * control stacks built from the same pieces in different shapes
//    (layer composition vs QCU) agree — see test_compiler.cpp for the
//    QCU side; here the layer stack is compared against bare cores.
#include <gtest/gtest.h>

#include "arch/pauli_frame_layer.h"
#include "arch/qx_core.h"
#include "circuit/qasm.h"
#include "circuit/random.h"
#include "core/arbiter.h"
#include "stabilizer/tableau.h"
#include "statevector/simulator.h"

#include "seed_support.h"

namespace qpf {
namespace {

class ArbiterFrameEquivalence : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ArbiterFrameEquivalence, SameForwardedStreamAndRecords) {
  QPF_ANNOUNCE_SEED(GetParam());
  RandomCircuitGenerator gen(GetParam());
  RandomCircuitOptions options;
  options.num_qubits = 6;
  options.num_gates = 300;  // default set includes T gates -> flushes
  // Sequentialize (one operation per slot): the batch rewriter hoists a
  // slot's flushes ahead of the whole slot, the arbiter interleaves
  // them; with single-op slots the two orders coincide exactly.
  Circuit circuit;
  for (const SlotView slot : gen.generate(options)) {
    for (const Operation& op : slot) {
      circuit.append_in_new_slot(op);
    }
  }

  // Path A: batch rewriting through PauliFrame::process.
  pf::PauliFrame frame(6);
  const Circuit processed = frame.process(circuit);
  std::vector<Operation> batch_stream;
  for (const SlotView slot : processed) {
    for (const Operation& op : slot) {
      batch_stream.push_back(op);
    }
  }

  // Path B: operation-by-operation through the arbiter.
  pf::PauliFrameUnit pfu(6);
  std::vector<Operation> arbiter_stream;
  pf::PauliArbiter arbiter(
      pfu, [&arbiter_stream](const Operation& op) {
        arbiter_stream.push_back(op);
      },
      /*trace_enabled=*/false);
  arbiter.submit(circuit);

  EXPECT_EQ(arbiter_stream, batch_stream);
  for (Qubit q = 0; q < 6; ++q) {
    EXPECT_EQ(frame.record(q), pfu.frame().record(q)) << "qubit " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArbiterFrameEquivalence,
                         ::testing::Range<std::uint64_t>(1, 16));

// Randomized property: the word-parallel tableau agrees with the
// state-vector simulator on every single-qubit measurement probability
// after a random Clifford circuit.  For stabilizer states the marginals
// are exactly 0, 1/2 or 1, so the comparison is tight.  200 circuits;
// the announced seed replays a failure exactly.
TEST(TableauStateVectorEquivalence, RandomCliffordCircuitProbabilities) {
  const std::uint64_t base_seed = 0xc11ff0d;
  QPF_ANNOUNCE_SEED(base_seed);
  constexpr std::size_t kCircuits = 200;
  constexpr std::size_t kQubits = 6;
  RandomCircuitOptions options;
  options.num_qubits = kQubits;
  options.num_gates = 60;
  options.clifford_only = true;
  for (std::size_t i = 0; i < kCircuits; ++i) {
    RandomCircuitGenerator gen(base_seed + i);
    const Circuit circuit = gen.generate(options);

    stab::Tableau tableau(kQubits, /*seed=*/1);
    tableau.execute(circuit);
    sv::Simulator simulator(kQubits, /*seed=*/1);
    simulator.execute(circuit);

    for (Qubit q = 0; q < kQubits; ++q) {
      EXPECT_NEAR(tableau.probability_one(q), simulator.probability_one(q),
                  1e-9)
          << "circuit " << i << " (seed " << base_seed + i << "), qubit "
          << static_cast<int>(q);
    }
  }
}

TEST(QasmFuzzTest, RoundTripsWithPrepAndMeasure) {
  RandomCircuitOptions options;
  options.num_qubits = 7;
  options.num_gates = 400;
  options.gate_set = {GateType::kI,    GateType::kX,        GateType::kH,
                      GateType::kS,    GateType::kCnot,     GateType::kCz,
                      GateType::kSwap, GateType::kT,        GateType::kPrepZ,
                      GateType::kMeasureZ};
  RandomCircuitGenerator gen(31);
  for (int i = 0; i < 20; ++i) {
    const Circuit circuit = gen.generate(options);
    EXPECT_EQ(from_qasm(to_qasm(circuit)), circuit) << "iteration " << i;
  }
}

// A flushed Pauli-frame stack is equivalent to a bare core for circuits
// WITH interleaved resets (resets clear records mid-stream).  Resets
// are kept on unentangled qubits so both execution paths are fully
// deterministic and comparable state-by-state.
TEST(FrameStackEquivalence, ResetsInterleavedWithTracking) {
  Circuit circuit;
  circuit.append(GateType::kX, 0);      // tracked
  circuit.append(GateType::kZ, 1);      // tracked
  circuit.append(GateType::kPrepZ, 0);  // clears the X record mid-stream
  circuit.append(GateType::kH, 0);
  circuit.append(GateType::kT, 0);
  circuit.append(GateType::kCnot, 0, 2);
  circuit.append(GateType::kY, 2);      // tracked post-entanglement
  circuit.append(GateType::kPrepZ, 3);  // reset of an untouched qubit
  circuit.append(GateType::kS, 1);
  circuit.append(GateType::kX, 3);      // tracked after reset

  arch::QxCore reference(1);
  reference.create_qubits(4);
  reference.add(circuit);
  reference.execute();

  arch::QxCore core(1);
  arch::PauliFrameLayer frame(&core);
  frame.create_qubits(4);
  frame.add(circuit);
  frame.execute();
  EXPECT_FALSE(frame.frame().clean());
  frame.flush();

  const auto expected = reference.get_quantum_state();
  const auto actual = core.get_quantum_state();
  ASSERT_TRUE(expected.has_value());
  ASSERT_TRUE(actual.has_value());
  EXPECT_TRUE(actual->equals_up_to_global_phase(*expected, 1e-9));
}

}  // namespace
}  // namespace qpf
