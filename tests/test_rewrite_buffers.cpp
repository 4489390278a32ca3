// Exactness of the allocation-free QEC window path:
//  * the integer noise draw (FlipThreshold) decides every draw exactly
//    like uniform_real_distribution<double>{0, 1} compared with p;
//  * PauliFrame::process and DepolarizingModel::inject give the same
//    circuit with a dirty, reused buffer as with a fresh one;
//  * circuit and LER checkpoint bytes equal golden values recorded
//    before circuits became flat, so the buffers and caches added to the
//    stack are not snapshot state.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "circuit/random.h"
#include "core/pauli_frame.h"
#include "journal/snapshot.h"
#include "ler_common.h"
#include "qec/depolarizing.h"
#include "seed_support.h"

namespace qpf {
namespace {

using qec::FlipThreshold;

TEST(FlipThresholdTest, AgreesWithTheLibraryDistribution) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t seed = test::test_seed(61);
  QPF_ANNOUNCE_SEED(seed);
  for (const double p : {0.0, 3e-4, 1e-3, 0.5, 1.0}) {
    const FlipThreshold threshold(p);
    const std::uint64_t t = threshold.below();
    for (const std::uint64_t x : {std::uint64_t{0}, t - 1, t, kMax}) {
      EXPECT_EQ(threshold.flips(x), FlipThreshold::uniform(x) < p)
          << "p=" << p << " x=" << x;
    }
    if (p > 0.0 && p < 1.0) {
      // T is the exact boundary: the draw below it flips, T does not.
      EXPECT_TRUE(FlipThreshold::uniform(t - 1) < p) << p;
      EXPECT_FALSE(FlipThreshold::uniform(t) < p) << p;
    }
    // Against the real engine: the integer rule sees the raw draw the
    // distribution consumed, and the distribution consumes exactly one.
    std::mt19937_64 engine(seed);
    std::mt19937_64 raw = engine;
    std::uniform_real_distribution<double> uniform{0.0, 1.0};
    for (int i = 0; i < 100'000; ++i) {
      const bool expected = uniform(engine) < p;
      ASSERT_EQ(threshold.flips(raw()), expected) << "p=" << p << " i=" << i;
    }
    EXPECT_TRUE(engine == raw) << p;
  }
  EXPECT_TRUE(FlipThreshold(1.0).all());
  EXPECT_FALSE(FlipThreshold(0.5).all());
  EXPECT_EQ(FlipThreshold(0.0).below(), 0u);
}

/// Random Clifford+T circuits with preparations and measurements, so
/// every rewrite rule (absorb, map, flush, reset, pass) and every noise
/// channel is exercised.
std::vector<Circuit> workload(std::size_t n, std::uint64_t seed) {
  RandomCircuitGenerator gen(seed);
  RandomCircuitOptions options;
  options.num_qubits = n;
  options.num_gates = 40;
  std::vector<Circuit> circuits;
  for (int i = 0; i < 40; ++i) {
    Circuit c = gen.generate(options);
    c.set_name(i % 2 == 0 ? "a-rather-long-circuit-name" : "c");
    c.append(GateType::kPrepZ, static_cast<Qubit>(i % n));
    for (Qubit q = 0; q < n; q += 2) {
      c.append(GateType::kMeasureZ, q);
    }
    circuits.push_back(c);
  }
  return circuits;
}

/// A buffer holding stale slots, a stale name and an open slot.
Circuit dirty_buffer() {
  Circuit buffer{"stale"};
  buffer.append(GateType::kCnot, 0, 1);
  buffer.append(GateType::kH, 0);
  buffer.push_op(Operation{GateType::kZ, 3});
  return buffer;
}

void expect_same(const Circuit& got, const Circuit& want) {
  EXPECT_EQ(got, want);
  EXPECT_EQ(got.name(), want.name());
  EXPECT_EQ(got.str(), want.str());
  EXPECT_EQ(got.num_operations(), want.num_operations());
}

TEST(RewriteBufferTest, ProcessIntoDirtyBufferMatchesFresh) {
  constexpr std::size_t kQubits = 6;
  pf::PauliFrame reused(kQubits);
  pf::PauliFrame fresh(kQubits);
  const std::uint64_t seed = test::test_seed(62);
  QPF_ANNOUNCE_SEED(seed);
  Circuit buffer = dirty_buffer();
  for (const Circuit& c : workload(kQubits, seed)) {
    reused.process(c, buffer);
    Circuit out;
    fresh.process(c, out);
    expect_same(buffer, out);
  }
  EXPECT_EQ(reused.str(), fresh.str());
  EXPECT_EQ(reused.stats().output_gates, fresh.stats().output_gates);
  EXPECT_EQ(reused.stats().output_slots, fresh.stats().output_slots);
  EXPECT_GT(reused.stats().flush_gates_emitted, 0u);
}

TEST(RewriteBufferTest, InjectIntoDirtyBufferMatchesFresh) {
  constexpr std::size_t kQubits = 6;
  const std::uint64_t seed = test::test_seed(63);
  QPF_ANNOUNCE_SEED(seed);
  qec::DepolarizingModel reused(0.05, seed);
  qec::DepolarizingModel fresh(0.05, seed);
  Circuit buffer = dirty_buffer();
  for (const Circuit& c : workload(kQubits, seed)) {
    // A circuit no draw touched comes back as it is and leaves the
    // buffer stale, so compare the circuits inject() returns.
    const Circuit& got = reused.inject(c, kQubits, buffer);
    Circuit out;
    expect_same(got, fresh.inject(c, kQubits, out));
  }
  EXPECT_EQ(reused.tally().total(), fresh.tally().total());
  EXPECT_GT(reused.tally().measurement_flips, 0u);
  EXPECT_GT(reused.tally().two_qubit, 0u);
}

// write_circuit bytes, recorded from the slot-vector Circuit.
TEST(GoldenBytesTest, WriteCircuit) {
  Circuit c{"golden"};
  c.append(GateType::kH, 0);
  c.append(GateType::kCnot, 1, 2);
  c.append(GateType::kMeasureZ, 0);
  c.append(GateType::kX, 3);
  c.append_in_new_slot(Operation{GateType::kPrepZ, 7});
  journal::SnapshotWriter out;
  out.write_circuit(c);
  const std::vector<std::uint8_t> golden = {
      0x0b, 0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x67, 0x6f,
      0x6c, 0x64, 0x65, 0x6e, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x09, 0x01, 0x00, 0x00,
      0x00, 0x02, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x0d, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x01, 0x03, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x01, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0c, 0x07, 0x00, 0x00, 0x00,
      0x07, 0x00, 0x00, 0x00};
  EXPECT_EQ(out.bytes(), golden);
  journal::SnapshotReader in(out.bytes());
  EXPECT_EQ(in.read_circuit(), c);
}

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) {
    h = (h ^ b) * 0x100000001b3ULL;
  }
  return h;
}

// A LerTrial checkpoint after 300 windows of each benchmark shape:
// tableau, RNG engines, frame records and counters, byte for byte.
// Recorded when the diagnostics became reads: since then the probe
// circuits no longer rewrite the ancilla columns, the scratch row, the
// ancillas' binary values and the frame's ancilla records and counters.
// Every RNG engine, and so every later outcome, is as before.
TEST(GoldenBytesTest, LerCheckpointAfterWindows) {
  struct Shape {
    double p;
    bool pauli_frame;
    qec::CheckType basis;
    std::size_t bytes;
    std::uint64_t fnv;
  };
  const Shape shapes[] = {
      {3e-4, false, qec::CheckType::kX, 13528, 0x6268b5841d171f4dULL},
      {1e-3, true, qec::CheckType::kZ, 13753, 0x282198c7afa6dfbaULL},
  };
  for (const Shape& shape : shapes) {
    bench::LerConfig config;
    config.physical_error_rate = shape.p;
    config.with_pauli_frame = shape.pauli_frame;
    config.basis = shape.basis;
    config.seed = 12345;
    config.target_logical_errors = 1000;
    bench::LerTrial trial(config);
    for (int i = 0; i < 300; ++i) {
      trial.step();
    }
    journal::SnapshotWriter out;
    trial.save(out);
    EXPECT_EQ(out.bytes().size(), shape.bytes) << shape.pauli_frame;
    EXPECT_EQ(fnv1a(out.bytes()), shape.fnv) << shape.pauli_frame;
  }
}

}  // namespace
}  // namespace qpf
