// End-to-end integration of the §5.3 LER experiment machinery on the
// Fig 5.8 control stack.
#include "arch/control_stack.h"

#include <gtest/gtest.h>

namespace qpf::arch {
namespace {

using qec::CheckType;

// One window + diagnostic step of the Listing 5.7 loop; returns whether
// a logical flip was observed and updates `expected_sign`.
bool window_step(LerStack& stack, CheckType basis, int& expected_sign) {
  stack.ninja().run_window(0);
  stack.set_diagnostic_mode(true);
  bool flipped = false;
  if (!stack.ninja().has_observable_errors(0)) {
    const int sign = stack.ninja().measure_logical_stabilizer(0, basis);
    flipped = sign != expected_sign;
    expected_sign = sign;
  }
  stack.set_diagnostic_mode(false);
  return flipped;
}

TEST(LerStackTest, ErrorFreeRunNeverFlips) {
  LerStack::Config config;
  config.physical_error_rate = 0.0;
  config.with_pauli_frame = true;
  LerStack stack(config);
  stack.set_diagnostic_mode(true);
  stack.ninja().initialize(0, CheckType::kZ);
  stack.set_diagnostic_mode(false);
  int expected = +1;
  for (int w = 0; w < 20; ++w) {
    EXPECT_FALSE(window_step(stack, CheckType::kZ, expected)) << w;
  }
}

TEST(LerStackTest, NoiseProducesLogicalErrorsAboveThreshold) {
  // Far above the pseudo-threshold the logical qubit fails fast.
  LerStack::Config config;
  config.physical_error_rate = 0.01;
  config.with_pauli_frame = false;
  config.seed = 11;
  LerStack stack(config);
  stack.set_diagnostic_mode(true);
  stack.ninja().initialize(0, CheckType::kZ);
  stack.set_diagnostic_mode(false);
  int expected = +1;
  int flips = 0;
  for (int w = 0; w < 300 && flips < 3; ++w) {
    flips += window_step(stack, CheckType::kZ, expected) ? 1 : 0;
  }
  EXPECT_GE(flips, 3);
}

TEST(LerStackTest, PauliFrameAbsorbsCorrections) {
  LerStack::Config config;
  config.physical_error_rate = 0.01;
  config.with_pauli_frame = true;
  config.seed = 17;
  LerStack stack(config);
  stack.set_diagnostic_mode(true);
  stack.ninja().initialize(0, CheckType::kZ);
  stack.set_diagnostic_mode(false);
  stack.reset_counters();
  int expected = +1;
  for (int w = 0; w < 100; ++w) {
    (void)window_step(stack, CheckType::kZ, expected);
  }
  // At this rate some corrections must have been issued and absorbed.
  EXPECT_GT(stack.gates_saved_fraction(), 0.0);
  EXPECT_GT(stack.slots_saved_fraction(), 0.0);
  // The §5.3.2 ceiling: at most one slot in 17 can be saved.
  EXPECT_LT(stack.slots_saved_fraction(), 1.0 / 17.0 + 1e-9);
}

TEST(LerStackTest, WithoutFrameNothingIsSaved) {
  LerStack::Config config;
  config.physical_error_rate = 0.01;
  config.with_pauli_frame = false;
  config.seed = 17;
  LerStack stack(config);
  stack.set_diagnostic_mode(true);
  stack.ninja().initialize(0, CheckType::kZ);
  stack.set_diagnostic_mode(false);
  stack.reset_counters();
  int expected = +1;
  for (int w = 0; w < 50; ++w) {
    (void)window_step(stack, CheckType::kZ, expected);
  }
  EXPECT_DOUBLE_EQ(stack.gates_saved_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(stack.slots_saved_fraction(), 0.0);
  // Noise was injected below the counters.
  EXPECT_GT(stack.error_tally().total(), 0u);
}

TEST(LerStackTest, DiagnosticModeIsErrorAndCounterFree) {
  LerStack::Config config;
  config.physical_error_rate = 1.0;  // would corrupt everything if armed
  config.with_pauli_frame = true;
  LerStack stack(config);
  stack.set_diagnostic_mode(true);
  stack.ninja().initialize(0, CheckType::kZ);
  EXPECT_FALSE(stack.ninja().has_observable_errors(0));
  EXPECT_EQ(stack.ninja().measure_logical_stabilizer(0, CheckType::kZ), +1);
  EXPECT_EQ(stack.error_tally().total(), 0u);
  EXPECT_EQ(stack.counters_above_frame().operations, 0u);
}

TEST(LerStackTest, PlusBasisExperimentRuns) {
  LerStack::Config config;
  config.physical_error_rate = 0.02;
  config.with_pauli_frame = true;
  config.seed = 23;
  LerStack stack(config);
  stack.set_diagnostic_mode(true);
  stack.ninja().initialize(0, CheckType::kX);
  EXPECT_EQ(stack.ninja().measure_logical_stabilizer(0, CheckType::kX), +1);
  stack.set_diagnostic_mode(false);
  int expected = +1;
  int flips = 0;
  for (int w = 0; w < 200 && flips < 1; ++w) {
    flips += window_step(stack, CheckType::kX, expected) ? 1 : 0;
  }
  EXPECT_GE(flips, 1);  // Z_L errors detected in the X basis
}

}  // namespace
}  // namespace qpf::arch
