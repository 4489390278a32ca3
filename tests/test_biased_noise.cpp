// Tests for the biased Pauli noise model and its layer.
#include "qec/biased_noise.h"

#include <gtest/gtest.h>

#include <cmath>

#include "circuit/error.h"

#include "arch/biased_error_layer.h"
#include "arch/chp_core.h"
#include "arch/ninja_star_layer.h"

namespace qpf::qec {
namespace {

TEST(BiasedNoiseTest, MarginalsFollowTheBiasFormula) {
  const BiasedNoiseModel model(0.01, 10.0, 1);
  EXPECT_NEAR(model.p_z(), 0.01 * 10.0 / 11.0, 1e-12);
  EXPECT_NEAR(model.p_x(), 0.01 / 22.0, 1e-12);
  EXPECT_NEAR(model.p_x() * 2 + model.p_z(), 0.01, 1e-12);
}

TEST(BiasedNoiseTest, HalfBiasIsSymmetric) {
  const BiasedNoiseModel model(0.3, 0.5, 1);
  EXPECT_NEAR(model.p_x(), 0.1, 1e-12);
  EXPECT_NEAR(model.p_z(), 0.1, 1e-12);
}

TEST(BiasedNoiseTest, ValidationRejectsBadParameters) {
  EXPECT_THROW(BiasedNoiseModel(-0.1, 1.0, 1), StackConfigError);
  EXPECT_THROW(BiasedNoiseModel(std::nan(""), 1.0, 1), StackConfigError);
  EXPECT_THROW(BiasedNoiseModel(0.1, 0.0, 1), StackConfigError);
  EXPECT_THROW(BiasedNoiseModel(0.1, -2.0, 1), StackConfigError);
}

TEST(BiasedNoiseTest, ZeroRateInjectsNothing) {
  BiasedNoiseModel model(0.0, 100.0, 1);
  Circuit c;
  c.append(GateType::kH, 0);
  EXPECT_EQ(model.inject(c, 2).num_operations(), 1u);
  EXPECT_EQ(model.tally().total(), 0u);
}

TEST(BiasedNoiseTest, HighBiasProducesMostlyZErrors) {
  BiasedNoiseModel model(1.0, 100.0, 7);
  Circuit c;
  c.append(GateType::kH, 0);
  std::size_t z_count = 0;
  std::size_t other_count = 0;
  for (int i = 0; i < 2000; ++i) {
    const Circuit out = model.inject(c, 1);
    for (const SlotView slot : out) {
      for (const Operation& op : slot) {
        if (op.gate() == GateType::kZ) {
          ++z_count;
        } else if (op.gate() == GateType::kX || op.gate() == GateType::kY) {
          ++other_count;
        }
      }
    }
  }
  // eta = 100: Z fraction among errors = 100/101 ~ 99%.
  EXPECT_GT(z_count, 50 * other_count);
}

TEST(BiasedNoiseTest, MeasurementFlipsAreUnbiasedX) {
  BiasedNoiseModel model(1.0, 100.0, 3);
  Circuit c;
  c.append(GateType::kMeasureZ, 0);
  const Circuit out = model.inject(c, 1);
  EXPECT_EQ(out.slot(0).front().gate(), GateType::kX);
  EXPECT_EQ(model.tally().measurement_flips, 1u);
}

TEST(BiasedNoiseTest, TwoQubitErrorsNeverBothIdentity) {
  BiasedNoiseModel model(1.0, 2.0, 11);
  Circuit c;
  c.append(GateType::kCnot, 0, 1);
  for (int i = 0; i < 100; ++i) {
    const Circuit out = model.inject(c, 2);
    EXPECT_GE(out.num_operations(), 2u);  // gate + at least one error
  }
}

TEST(BiasedErrorLayerTest, StacksAndBypasses) {
  arch::ChpCore core(5);
  arch::BiasedErrorLayer noisy(&core, 1.0, 10.0, 7);
  noisy.create_qubits(2);
  Circuit c;
  c.append(GateType::kH, 0);
  noisy.set_bypass(true);
  noisy.add(c);
  EXPECT_EQ(noisy.tally().total(), 0u);
  noisy.set_bypass(false);
  noisy.add(c);
  EXPECT_GT(noisy.tally().total(), 0u);
}

TEST(BiasedErrorLayerTest, HighBiasSkewsLogicalFailures) {
  // Under strong dephasing bias, Z_L failures (seen in the X basis)
  // should dominate X_L failures over identical window budgets.
  const auto flips_for = [](CheckType basis) {
    int flips = 0;
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      arch::ChpCore core(13 + seed);
      arch::BiasedErrorLayer noisy(&core, 2e-3, 30.0, 17 + seed);
      arch::NinjaStarLayer ninja(&noisy);
      ninja.create_qubits(1);
      noisy.set_bypass(true);
      ninja.initialize(0, basis);
      noisy.set_bypass(false);
      int expected = +1;
      for (int w = 0; w < 250; ++w) {
        ninja.run_window(0);
        noisy.set_bypass(true);
        if (!ninja.has_observable_errors(0)) {
          const int sign = ninja.measure_logical_stabilizer(0, basis);
          flips += sign != expected ? 1 : 0;
          expected = sign;
        }
        noisy.set_bypass(false);
      }
    }
    return flips;
  };
  const int z_basis_flips = flips_for(CheckType::kZ);  // X_L errors
  const int x_basis_flips = flips_for(CheckType::kX);  // Z_L errors
  EXPECT_GT(x_basis_flips, 2 * z_basis_flips);
  EXPECT_GT(x_basis_flips, 0);
}

}  // namespace
}  // namespace qpf::qec
