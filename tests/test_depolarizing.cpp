// Tests for the symmetric depolarizing error model (§5.3.1).
#include "qec/depolarizing.h"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "circuit/error.h"
#include "noise_fixture.h"
#include "qec/surface_code.h"

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

TEST(DepolarizingTest, CleanCircuitIsReturnedUntouched) {
  const Circuit in = single_slot_of_h(4);
  Circuit buffer{"stale"};
  buffer.append(GateType::kX, 0);
  DepolarizingModel model(0.0, 1);
  EXPECT_EQ(&model.inject(in, 6, buffer), &in);
  EXPECT_EQ(buffer.name(), "stale");
  EXPECT_EQ(buffer.num_operations(), 1u);
  DepolarizingModel noisy(1.0, 1);
  EXPECT_EQ(&noisy.inject(in, 6, buffer), &buffer);
  EXPECT_EQ(noisy.tally().idle, 2u);
}

// --- The recorded fixture, tests/golden/depolarizing_noise.txt --------

/// What a location is, in inject()'s draw order: each slot's
/// operations in slot order, then its idle qubits ascending.
enum class Location { kOperation, kMeasurement, kIdle };

std::vector<Location> draw_locations(const Circuit& circuit, std::size_t n) {
  std::vector<Location> out;
  for (const SlotView slot : circuit) {
    std::vector<bool> busy(n, false);
    for (const Operation& op : slot) {
      busy[op.control()] = true;
      busy[op.target()] = true;
      out.push_back(category(op.gate()) == GateCategory::kMeasurement
                        ? Location::kMeasurement
                        : Location::kOperation);
    }
    for (std::size_t q = 0; q < n; ++q) {
      if (!busy[q]) {
        out.push_back(Location::kIdle);
      }
    }
  }
  return out;
}

/// The first of `count` draws of a fresh mt19937_64(seed) that faults
/// at rate p, by the library's double distribution; -1 if none does.
long first_fault(std::uint64_t seed, double p, std::size_t count) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uniform{0.0, 1.0};
  for (std::size_t i = 0; i < count; ++i) {
    if (uniform(rng) < p) {
      return static_cast<long>(i);
    }
  }
  return -1;
}

// The symmetric channel draws what the per-location loop that rewrote
// every circuit drew: per point, 200 successive injections' Circuit::str()
// hash, the tally and the save() bytes' hash, on the fixture circuit
// and the d = 3 and d = 5 ESM rounds.  Labelled points pick seeds whose
// first injection first faults at location 0, at the last idle qubit of
// the last slot, and on a measurement.
TEST(DepolarizingTest, InjectionsMatchTheRecordedPerLocationLoop) {
  const SurfaceCodeLayout d3(3);
  const SurfaceCodeLayout d5(5);
  struct FixtureCircuit {
    Circuit circuit;
    std::size_t qubits;
  };
  const std::map<std::string, FixtureCircuit> circuits = {
      {"fixture", {test::noise_fixture_circuit(), 4}},
      {"esm3", {d3.esm_circuit(0), d3.num_qubits()}},
      {"esm5", {d5.esm_circuit(0), d5.num_qubits()}},
  };
  std::ifstream file(std::string(QPF_TEST_GOLDEN_DIR) +
                     "/depolarizing_noise.txt");
  ASSERT_TRUE(file.good());
  std::size_t points = 0;
  std::map<std::string, std::size_t> labels;
  std::string line;
  while (std::getline(file, line)) {
    if (line.empty() || line.front() == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string label;
    std::string name;
    fields >> label >> name;
    ASSERT_EQ(circuits.count(name), 1u) << line;
    const FixtureCircuit& fixture = circuits.at(name);
    const std::vector<Location> locations =
        draw_locations(fixture.circuit, fixture.qubits);
    if (label == "circuit") {
      // The circuits themselves are unchanged.
      std::size_t qubits = 0;
      std::size_t count = 0;
      std::string hash;
      fields >> qubits >> count >> hash;
      ASSERT_FALSE(fields.fail()) << line;
      EXPECT_EQ(fixture.qubits, qubits) << line;
      EXPECT_EQ(locations.size(), count) << line;
      EXPECT_EQ(test::hex64(test::fnv1a(fixture.circuit.str())), hash) << line;
      continue;
    }
    double p = 0.0;
    std::uint64_t seed = 0;
    long fired = 0;
    test::InjectionRecord want;
    fields >> p >> seed >> fired >> want.circuits >> want.tally.single_qubit >>
        want.tally.two_qubit >> want.tally.measurement_flips >>
        want.tally.idle >> want.save;
    ASSERT_FALSE(fields.fail()) << line;
    EXPECT_EQ(first_fault(seed, p, locations.size()), fired) << line;
    const test::InjectionRecord got =
        test::record_injections(fixture.circuit, fixture.qubits, p, seed);
    EXPECT_EQ(got.circuits, want.circuits) << line;
    EXPECT_EQ(got.tally.single_qubit, want.tally.single_qubit) << line;
    EXPECT_EQ(got.tally.two_qubit, want.tally.two_qubit) << line;
    EXPECT_EQ(got.tally.measurement_flips, want.tally.measurement_flips)
        << line;
    EXPECT_EQ(got.tally.idle, want.tally.idle) << line;
    EXPECT_EQ(got.save, want.save) << line;
    if (label == "first") {
      EXPECT_EQ(fired, 0) << line;
    } else if (label == "last") {
      EXPECT_EQ(fired + 1, static_cast<long>(locations.size())) << line;
      EXPECT_EQ(locations.back(), Location::kIdle) << line;
    } else if (label == "measure") {
      ASSERT_GE(fired, 0) << line;
      EXPECT_EQ(locations[static_cast<std::size_t>(fired)],
                Location::kMeasurement)
          << line;
    } else {
      EXPECT_EQ(label, "grid") << line;
    }
    ++labels[label];
    ++points;
  }
  EXPECT_EQ(points, 36u);
  EXPECT_EQ(labels["grid"], 30u);
  EXPECT_EQ(labels["first"], 2u);
  EXPECT_EQ(labels["last"], 2u);
  EXPECT_EQ(labels["measure"], 2u);
}

}  // namespace
}  // namespace qpf::qec
