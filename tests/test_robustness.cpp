// Failure injection and robustness: the stacks must stay usable (no
// crashes, no corrupted bookkeeping) under extreme noise, repeated
// faults, and adversarial error placement.
#include <gtest/gtest.h>

#include <random>

#include "arch/chp_core.h"
#include "arch/control_stack.h"
#include "arch/steane_layer.h"
#include "stabilizer/pauli_string.h"

#include "seed_support.h"

namespace qpf::arch {
namespace {

using qec::CheckType;

TEST(RobustnessTest, MaximalNoiseDoesNotBreakTheStack) {
  LerStack::Config config;
  config.physical_error_rate = 1.0;  // every location faults
  config.with_pauli_frame = true;
  LerStack stack(config);
  stack.set_diagnostic_mode(true);
  stack.ninja().initialize(0, CheckType::kZ);
  stack.set_diagnostic_mode(false);
  for (int w = 0; w < 20; ++w) {
    EXPECT_NO_THROW(stack.ninja().run_window(0));
  }
  stack.set_diagnostic_mode(true);
  // Diagnostics still function; the result is meaningless but valid.
  const int sign = stack.ninja().measure_logical_stabilizer(0, CheckType::kZ);
  EXPECT_TRUE(sign == +1 || sign == -1);
}

TEST(RobustnessTest, RepeatedSingleFaultsNeverAccumulate) {
  // Inject one error, correct it, repeat many times: the decoder state
  // must return to clean every cycle.
  ChpCore core(3);
  NinjaStarLayer ninja(&core);
  ninja.create_qubits(1);
  ninja.initialize(0, CheckType::kZ);
  QPF_ANNOUNCE_SEED(5);
  std::mt19937_64 rng(5);
  for (int round = 0; round < 50; ++round) {
    const auto d = static_cast<Qubit>(rng() % 9);
    static constexpr GateType kPaulis[] = {GateType::kX, GateType::kY,
                                           GateType::kZ};
    Circuit error;
    error.append(kPaulis[rng() % 3], ninja.layout().data_qubit(0, d));
    run(core, error);
    ninja.run_window(0);  // may defer
    ninja.run_window(0);  // must catch up
    ASSERT_FALSE(ninja.has_observable_errors(0)) << "round " << round;
    ASSERT_EQ(ninja.measure_logical_stabilizer(0, CheckType::kZ), +1)
        << "round " << round;
  }
}

TEST(RobustnessTest, AdversarialHookErrorsOnAncillas) {
  // Single ancilla faults mid-ESM must never flip the logical state
  // after the decoder catches up (the hook-error property the mixed
  // CNOT pattern guarantees).
  for (int ancilla = 0; ancilla < 8; ++ancilla) {
    for (GateType g : {GateType::kX, GateType::kZ}) {
      ChpCore core(static_cast<std::uint64_t>(7 + ancilla));
      NinjaStarLayer ninja(&core);
      ninja.create_qubits(1);
      ninja.initialize(0, CheckType::kZ);
      // Run half an ESM round manually: prep + H + first two CNOT slots,
      // then fault the ancilla, then let regular windows clean up.
      // (Simplified: fault the idle ancilla between windows; the next
      // window's own ESM then propagates whatever it can.)
      Circuit fault;
      fault.append(g, ninja.layout().ancilla_qubit(0, ancilla));
      run(core, fault);
      ninja.run_window(0);
      ninja.run_window(0);
      EXPECT_FALSE(ninja.has_observable_errors(0))
          << name(g) << " on ancilla " << ancilla;
      EXPECT_EQ(ninja.measure_logical_stabilizer(0, CheckType::kZ), +1)
          << name(g) << " on ancilla " << ancilla;
    }
  }
}

TEST(RobustnessTest, StabilizerValuedErrorsAreInvisible) {
  // Error patterns that equal an X stabilizer act trivially on the code
  // space: no syndrome, no logical flip, nothing for the decoder to do.
  const std::vector<std::vector<int>> stabilizer_supports = {
      {1, 2}, {6, 7}, {0, 1, 3, 4}, {4, 5, 7, 8}};
  for (const auto& support : stabilizer_supports) {
    ChpCore core(31);
    NinjaStarLayer ninja(&core);
    ninja.create_qubits(1);
    ninja.initialize(0, CheckType::kZ);
    Circuit error;
    for (int d : support) {
      error.append(GateType::kX, ninja.layout().data_qubit(0, d));
    }
    run(core, error);
    EXPECT_FALSE(ninja.has_observable_errors(0));
    ninja.run_window(0);
    EXPECT_EQ(ninja.measure_logical_stabilizer(0, CheckType::kZ), +1);
  }
}

TEST(RobustnessTest, DistanceFiveSurvivesScatteredFaultBursts) {
  ChpCore core(1);
  NinjaStarLayer::Options options;
  options.distance = 5;
  NinjaStarLayer ninja(&core, options);
  ninja.create_qubits(1);
  ninja.initialize(0, CheckType::kZ);
  QPF_ANNOUNCE_SEED(9);
  std::mt19937_64 rng(9);
  for (int burst = 0; burst < 20; ++burst) {
    // Up to two faults per burst: within the d = 5 correction capacity.
    Circuit error;
    const auto q1 = static_cast<Qubit>(rng() % 25);
    error.append(GateType::kX, q1);
    if (rng() % 2 == 0) {
      auto q2 = static_cast<Qubit>(rng() % 25);
      if (q2 != q1) {
        error.append(GateType::kZ, q2);
      }
    }
    run(core, error);
    ninja.run_window(0);
    ninja.run_window(0);
    ASSERT_FALSE(ninja.has_observable_errors(0)) << "burst " << burst;
    ASSERT_EQ(ninja.measure_logical_stabilizer(0, CheckType::kZ), +1)
        << "burst " << burst;
  }
}

TEST(RobustnessTest, SteaneLayerSurvivesModerateNoise) {
  int correct = 0;
  // Per-iteration core/noise seeds are labelled sub-streams of the
  // announced seed (the old 41+i / 43+i scheme made the streams
  // overlap: 41+2 == 43+0).
  const std::uint64_t base = test::test_seed(41);
  QPF_ANNOUNCE_SEED(base);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    ChpCore core(exec::task_seed(test::stream_seed(base, "core"), seed));
    ErrorLayer noisy(&core, 3e-4,
                     exec::task_seed(test::stream_seed(base, "noise"), seed));
    SteaneLayer steane(&noisy);
    steane.create_qubits(1);
    steane.initialize(0);
    Circuit logical;
    logical.append(GateType::kX, 0);
    logical.append_in_new_slot(Operation{GateType::kI, 0});  // QEC round
    logical.append_in_new_slot(Operation{GateType::kMeasureZ, 0});
    steane.add(logical);
    steane.execute();
    correct += steane.get_state()[0] == BinaryValue::kOne ? 1 : 0;
  }
  EXPECT_GE(correct, 18);
}

}  // namespace
}  // namespace qpf::arch
