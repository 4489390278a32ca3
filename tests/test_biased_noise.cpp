// Tests for the dephasing-biased channel of the depolarizing model and
// of ErrorLayer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>

#include "arch/chp_core.h"
#include "arch/error_layer.h"
#include "circuit/error.h"
#include "ler_common.h"
#include "noise_fixture.h"
#include "qec/depolarizing.h"

namespace qpf::qec {
namespace {

TEST(BiasedNoiseTest, MarginalsFollowTheBiasFormula) {
  const DepolarizingModel model(0.01, 1, 10.0);
  EXPECT_NEAR(model.p_z(), 0.01 * 10.0 / 11.0, 1e-12);
  EXPECT_NEAR(model.p_x(), 0.01 / 22.0, 1e-12);
  EXPECT_NEAR(model.p_x() * 2 + model.p_z(), 0.01, 1e-12);
}

TEST(BiasedNoiseTest, HalfBiasIsSymmetric) {
  const DepolarizingModel model(0.3, 1, 0.5);
  EXPECT_NEAR(model.p_x(), 0.1, 1e-12);
  EXPECT_NEAR(model.p_z(), 0.1, 1e-12);
}

TEST(BiasedNoiseTest, ValidationRejectsBadParameters) {
  EXPECT_THROW(DepolarizingModel(-0.1, 1, 1.0), StackConfigError);
  EXPECT_THROW(DepolarizingModel(std::nan(""), 1, 1.0), StackConfigError);
  EXPECT_THROW(DepolarizingModel(0.1, 1, 0.0), StackConfigError);
  EXPECT_THROW(DepolarizingModel(0.1, 1, -2.0), StackConfigError);
  // A NaN bias made every fault Z, an infinite one made p_z NaN.
  EXPECT_THROW(DepolarizingModel(0.1, 1, std::nan("")), StackConfigError);
  EXPECT_THROW(
      DepolarizingModel(0.1, 1, std::numeric_limits<double>::infinity()),
      StackConfigError);
}

TEST(BiasedNoiseTest, ZeroRateInjectsNothing) {
  DepolarizingModel model(0.0, 1, 100.0);
  Circuit c;
  c.append(GateType::kH, 0);
  EXPECT_EQ(model.inject(c, 2).num_operations(), 1u);
  EXPECT_EQ(model.tally().total(), 0u);
}

TEST(BiasedNoiseTest, HighBiasProducesMostlyZErrors) {
  DepolarizingModel model(1.0, 7, 100.0);
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
  DepolarizingModel model(1.0, 3, 100.0);
  Circuit c;
  c.append(GateType::kMeasureZ, 0);
  const Circuit out = model.inject(c, 1);
  EXPECT_EQ(out.slot(0).front().gate(), GateType::kX);
  EXPECT_EQ(model.tally().measurement_flips, 1u);
}

TEST(BiasedNoiseTest, TwoQubitErrorsNeverBothIdentity) {
  DepolarizingModel model(1.0, 11, 2.0);
  Circuit c;
  c.append(GateType::kCnot, 0, 1);
  for (int i = 0; i < 100; ++i) {
    const Circuit out = model.inject(c, 2);
    EXPECT_GE(out.num_operations(), 2u);  // gate + at least one error
  }
}

// The biased channel draws exactly what the separate biased model drew
// before it joined DepolarizingModel: per grid point, the FNV-1a hash
// of Circuit::str() over 200 successive injections and the tally.
TEST(BiasedNoiseTest, InjectionsMatchTheRecordedBiasedModel) {
  std::ifstream file(std::string(QPF_TEST_GOLDEN_DIR) + "/biased_noise.txt");
  ASSERT_TRUE(file.good());
  const Circuit circuit = test::noise_fixture_circuit();
  std::size_t points = 0;
  std::string line;
  while (std::getline(file, line)) {
    if (line.empty() || line.front() == '#') {
      continue;
    }
    std::istringstream fields(line);
    double p = 0.0;
    double eta = 0.0;
    std::uint64_t seed = 0;
    std::string fnv;
    ErrorTally expected;
    fields >> p >> eta >> seed >> fnv >> expected.single_qubit >>
        expected.two_qubit >> expected.measurement_flips >> expected.idle;
    ASSERT_FALSE(fields.fail()) << line;
    const test::InjectionRecord got =
        test::record_injections(circuit, 4, p, seed, eta);
    EXPECT_EQ(got.circuits, fnv) << line;
    EXPECT_EQ(got.tally.single_qubit, expected.single_qubit) << line;
    EXPECT_EQ(got.tally.two_qubit, expected.two_qubit) << line;
    EXPECT_EQ(got.tally.measurement_flips, expected.measurement_flips)
        << line;
    EXPECT_EQ(got.tally.idle, expected.idle) << line;
    ++points;
  }
  EXPECT_EQ(points, 12u);
}

TEST(BiasedNoiseTest, SnapshotRejectsTheOtherChannelAndAnotherBias) {
  const DepolarizingModel biased(0.01, 1, 10.0);
  journal::SnapshotWriter out;
  biased.save(out);
  DepolarizingModel same(0.01, 1, 10.0);
  journal::SnapshotReader in(out.bytes());
  same.load(in);
  EXPECT_TRUE(in.exhausted());
  for (const std::optional<double> bias : {std::optional<double>{},
                                           std::optional<double>{30.0}}) {
    DepolarizingModel other(0.01, 1, bias);
    journal::SnapshotReader again(out.bytes());
    EXPECT_THROW(other.load(again), CheckpointError);
  }
  journal::SnapshotWriter plain;
  DepolarizingModel(0.01, 1).save(plain);
  journal::SnapshotReader from_plain(plain.bytes());
  DepolarizingModel other(0.01, 1, 10.0);
  EXPECT_THROW(other.load(from_plain), CheckpointError);
}

TEST(BiasedErrorLayerTest, StacksAndBypasses) {
  arch::ChpCore core(5);
  arch::ErrorLayer noisy(&core, 1.0, 7, 10.0);
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
    std::size_t flips = 0;
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      bench::LerConfig config;
      config.physical_error_rate = 2e-3;
      config.bias = 30.0;
      config.basis = basis;
      config.target_logical_errors = std::numeric_limits<std::size_t>::max();
      config.max_windows = 250;
      config.seed = 17 + seed;
      flips += bench::run_ler(config).logical_errors;
    }
    return flips;
  };
  const std::size_t z_basis_flips = flips_for(CheckType::kZ);  // X_L errors
  const std::size_t x_basis_flips = flips_for(CheckType::kX);  // Z_L errors
  EXPECT_GT(x_basis_flips, 2 * z_basis_flips);
  EXPECT_GT(x_basis_flips, 0u);
}

}  // namespace
}  // namespace qpf::qec
