// Diagnostics as observables: Tableau::expectations against measuring
// the same observable through an ancilla, the Core::peek contract of
// every stack element, the NinjaStarLayer diagnostics' choice between
// reading and running their circuits, and resuming campaigns that the
// circuit-probe implementation checkpointed.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "arch/chp_core.h"
#include "arch/counter_layer.h"
#include "arch/error_layer.h"
#include "arch/ninja_star_layer.h"
#include "arch/pauli_frame_layer.h"
#include "arch/validating_layer.h"
#include "journal/snapshot.h"
#include "ler_common.h"
#include "seed_support.h"
#include "stabilizer/tableau.h"

namespace qpf {
namespace {

using stab::Pauli;
using stab::PauliTerm;
using stab::SparsePauli;
using stab::Tableau;

std::vector<std::uint8_t> saved(const Tableau& t) {
  journal::SnapshotWriter out;
  t.save(out);
  return out.bytes();
}

/// Measure `p` on a load(save()) twin of `t` through the ancilla qubit
/// `ancilla` (|0>, outside p's support): +1 / -1 when deterministic,
/// 0 when the outcome was random.
int measured_through_ancilla(const Tableau& t, const SparsePauli& p,
                             Qubit ancilla) {
  journal::SnapshotReader in(saved(t));
  Tableau twin = Tableau::load(in);
  twin.reset(ancilla);
  twin.apply_h(ancilla);
  for (const PauliTerm& term : p.terms) {
    switch (term.pauli) {
      case Pauli::kX:
        twin.apply_cnot(ancilla, term.qubit);
        break;
      case Pauli::kZ:
        twin.apply_cz(ancilla, term.qubit);
        break;
      case Pauli::kY:  // controlled-Y = S . CNOT . S-dagger on the target
        twin.apply_sdag(term.qubit);
        twin.apply_cnot(ancilla, term.qubit);
        twin.apply_s(term.qubit);
        break;
      case Pauli::kI:
        break;
    }
  }
  twin.apply_h(ancilla);
  const stab::MeasureResult m = twin.measure(ancilla);
  if (!m.deterministic) {
    return 0;
  }
  return (m.sign() < 0) != p.negative ? -1 : +1;
}

// --- Tableau::expectations ------------------------------------------

TEST(TableauExpectationTest, BellPairValues) {
  Tableau t(3);
  t.apply_h(0);
  t.apply_cnot(0, 1);
  const std::vector<SparsePauli> observables = {
      {{{0, Pauli::kX}, {1, Pauli::kX}}, false},
      {{{0, Pauli::kZ}, {1, Pauli::kZ}}, true},
      {{{0, Pauli::kY}, {1, Pauli::kY}}, false},
      {{{0, Pauli::kZ}}, false},
      {{{2, Pauli::kZ}}, true},  // the hint answers this one
      {{}, false},               // identity
  };
  std::vector<int> values(observables.size());
  t.expectations(observables, values);
  EXPECT_EQ(values, (std::vector<int>{+1, -1, -1, 0, -1, +1}));
}

TEST(TableauExpectationTest, RejectsBadArguments) {
  const Tableau t(2);
  const std::vector<SparsePauli> outside = {{{{2, Pauli::kZ}}, false}};
  std::vector<int> one(1);
  EXPECT_THROW(t.expectations(outside, one), std::out_of_range);
  std::vector<int> two(2);
  EXPECT_THROW(t.expectations(outside, two), std::invalid_argument);
}

/// A random observable on qubits [0, n): either random factors, or (to
/// get fixed values often) the tensor part of a product of up to three
/// stabilizer generators; the sign is random either way.
SparsePauli random_observable(const Tableau& t, std::size_t n,
                              std::mt19937_64& rng) {
  std::vector<std::uint8_t> bits(n, 0);
  if (rng() % 2 == 0) {
    const std::size_t weight = 1 + rng() % std::min<std::size_t>(n, 5);
    for (std::size_t f = 0; f < weight; ++f) {
      bits[rng() % n] = static_cast<std::uint8_t>(1 + rng() % 3);
    }
  } else {
    const std::size_t factors = 1 + rng() % 3;
    for (std::size_t f = 0; f < factors; ++f) {
      const stab::PauliString row = t.stabilizer(rng() % t.num_qubits());
      for (std::size_t q = 0; q < n; ++q) {
        bits[q] ^= static_cast<std::uint8_t>(row.pauli(q));
      }
    }
  }
  SparsePauli p;
  p.negative = rng() % 2 == 0;
  for (std::size_t q = 0; q < n; ++q) {
    if (bits[q] != 0) {
      p.terms.push_back({static_cast<Qubit>(q), static_cast<Pauli>(bits[q])});
    }
  }
  return p;
}

/// Random Clifford circuits with measurements and resets on qubits
/// [0, n) of an (n + 1)-qubit tableau; after every few operations a
/// batch of random signed observables is read at once and each value is
/// compared with measuring it through the spare qubit on a twin.
class TableauExpectationDifferentialTest
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TableauExpectationDifferentialTest, MatchesAncillaMeasurement) {
  const std::size_t n = GetParam();
  const std::uint64_t seed = test::test_seed(20261017 + n);
  QPF_ANNOUNCE_SEED(seed);
  std::mt19937_64 rng(seed);
  const auto ancilla = static_cast<Qubit>(n);
  Tableau t(n + 1, test::stream_seed(seed, "tableau"));
  constexpr int kOps = 3000;
  constexpr int kKinds = 11;  // H S S† X Y Z CNOT CZ SWAP measure reset
  int fixed = 0;
  int random = 0;
  int with_y = 0;
  for (int i = 0; i < kOps; ++i) {
    const auto a = static_cast<Qubit>(rng() % n);
    auto b = static_cast<Qubit>(rng() % n);
    const auto kind = static_cast<int>(rng() % kKinds);
    const bool two_qubit = kind >= 6 && kind <= 8;
    if (two_qubit && n == 1) {
      continue;
    }
    if (two_qubit && b == a) {
      b = static_cast<Qubit>((a + 1) % n);
    }
    switch (kind) {
      case 0: t.apply_h(a); break;
      case 1: t.apply_s(a); break;
      case 2: t.apply_sdag(a); break;
      case 3: t.apply_x(a); break;
      case 4: t.apply_y(a); break;
      case 5: t.apply_z(a); break;
      case 6: t.apply_cnot(a, b); break;
      case 7: t.apply_cz(a, b); break;
      case 8: t.apply_swap(a, b); break;
      case 9: (void)t.measure(a); break;
      default: t.reset(a); break;
    }
    if (i % 8 != 0) {
      continue;
    }
    std::vector<SparsePauli> batch;
    for (int k = 0; k < 6; ++k) {
      batch.push_back(random_observable(t, n, rng));
    }
    const std::vector<std::uint8_t> before = saved(t);
    std::vector<int> values(batch.size());
    t.expectations(batch, values);
    ASSERT_EQ(saved(t), before) << "op " << i;
    for (std::size_t k = 0; k < batch.size(); ++k) {
      ASSERT_EQ(values[k], measured_through_ancilla(t, batch[k], ancilla))
          << "op " << i << " observable " << k;
      fixed += values[k] != 0 ? 1 : 0;
      random += values[k] == 0 ? 1 : 0;
      for (const PauliTerm& term : batch[k].terms) {
        with_y += term.pauli == Pauli::kY ? 1 : 0;
      }
    }
  }
  EXPECT_GT(fixed, 100);
  EXPECT_GT(random, n == 1 ? 10 : 100);
  EXPECT_GT(with_y, 50);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TableauExpectationDifferentialTest,
                         ::testing::Values(1, 2, 17, 31, 32, 33, 100));

// --- Core::peek across the stack --------------------------------------

const std::vector<SparsePauli>& bell_observables() {
  static const std::vector<SparsePauli> observables = {
      {{{0, Pauli::kX}, {1, Pauli::kX}}, false},
      {{{0, Pauli::kZ}, {1, Pauli::kZ}}, false},
      {{{0, Pauli::kZ}}, false},
  };
  return observables;
}

Circuit bell_circuit() {
  Circuit c{"bell"};
  c.append(GateType::kH, 0);
  c.append_in_new_slot(Operation{GateType::kCnot, 0, 1});
  return c;
}

std::vector<int> peek(const arch::Core& core) {
  std::vector<int> values(bell_observables().size(), 7);
  core.peek(bell_observables(), values);
  return values;
}

TEST(ObservableReadTest, ChpCoreReadsTheStateAfterExecute) {
  arch::ChpCore core(3);
  core.create_qubits(2);
  core.add(bell_circuit());
  EXPECT_EQ(peek(core), (std::vector<int>{0, 0, 0}))
      << "a queued circuit has not run yet";
  core.execute();
  EXPECT_EQ(peek(core), (std::vector<int>{+1, +1, 0}));
}

TEST(ObservableReadTest, CoreDefaultAndLogicalLayersCannotTell) {
  arch::ChpCore chp(3);
  arch::NinjaStarLayer ninja(&chp);
  ninja.create_qubits(1);
  EXPECT_EQ(peek(ninja), (std::vector<int>{0, 0, 0}));
  arch::ChpCore plain(3);
  plain.create_qubits(2);
  arch::run(plain, bell_circuit());
  arch::ValidatingLayer validator(&plain);
  EXPECT_EQ(peek(validator), (std::vector<int>{0, 0, 0}));
}

TEST(ObservableReadTest, FrameFlipsWhatItsRecordsAnticommuteWith) {
  arch::ChpCore core(3);
  arch::PauliFrameLayer frame(&core);
  frame.create_qubits(2);
  arch::run(frame, bell_circuit());
  Circuit x0{"x0"};
  x0.append(GateType::kX, 0);
  arch::run(frame, x0);  // absorbed: the record of qubit 0 is X
  EXPECT_EQ(peek(core), (std::vector<int>{+1, +1, 0}));
  EXPECT_EQ(peek(frame), (std::vector<int>{+1, -1, 0}));
  Circuit z1{"z1"};
  z1.append(GateType::kZ, 1);
  arch::run(frame, z1);
  EXPECT_EQ(peek(frame), (std::vector<int>{-1, -1, 0}));

  arch::ChpCore guarded_core(3);
  arch::PauliFrameLayer guarded(&guarded_core, pf::Protection::kVote);
  guarded.create_qubits(2);
  arch::run(guarded, bell_circuit());
  EXPECT_EQ(peek(guarded), (std::vector<int>{0, 0, 0}));
}

TEST(ObservableReadTest, ActingLayersAnswerOnlyWhileBypassed) {
  arch::ChpCore core(3);
  arch::ErrorLayer noise(&core, 0.0, 5);
  arch::CounterLayer counter(&noise);
  counter.create_qubits(2);
  arch::run(counter, bell_circuit());
  EXPECT_EQ(peek(counter), (std::vector<int>{0, 0, 0}));
  counter.set_bypass(true);
  EXPECT_EQ(peek(counter), (std::vector<int>{0, 0, 0}))
      << "the error layer below is still armed";
  noise.set_bypass(true);
  EXPECT_EQ(peek(counter), (std::vector<int>{+1, +1, 0}));
}

/// Counts the circuits passing down, and can hide the read.
class CircuitCount final : public arch::Layer {
 public:
  CircuitCount(arch::Core* lower, bool readable)
      : Layer(lower), readable_(readable) {}
  void add(const Circuit& circuit) override {
    ++circuits;
    lower().add(circuit);
  }
  void peek(std::span<const SparsePauli> observables,
            std::span<int> values) const override {
    if (readable_) {
      lower().peek(observables, values);
    } else {
      Core::peek(observables, values);
    }
  }
  std::size_t circuits = 0;

 private:
  bool readable_;
};

TEST(ObservableReadTest, DiagnosticsReadWhenTheStackCanAnswer) {
  for (const bool with_frame : {false, true}) {
    std::vector<qec::Syndrome> syndromes;
    std::vector<int> signs;
    for (const bool readable : {false, true}) {
      arch::ChpCore core(11);
      arch::PauliFrameLayer frame(&core);
      CircuitCount count(with_frame ? static_cast<arch::Core*>(&frame)
                                    : static_cast<arch::Core*>(&core),
                         readable);
      arch::NinjaStarLayer ninja(&count);
      ninja.create_qubits(1);
      ninja.initialize(0, qec::CheckType::kZ);
      // An X error on the center data qubit, through the stack: a
      // record when the frame is on.
      Circuit error{"error"};
      error.append(GateType::kX, ninja.layout().data_qubit(0, 4));
      arch::run(count, error);
      std::size_t before = count.circuits;
      syndromes.push_back(ninja.probe_syndrome(0));
      signs.push_back(ninja.measure_logical_stabilizer(0, qec::CheckType::kZ));
      EXPECT_EQ(count.circuits - before, readable ? 0u : 2u)
          << "frame " << with_frame;
      // The X chain of |0>_L is random: the read declines and the
      // circuit runs.
      before = count.circuits;
      (void)ninja.measure_logical_stabilizer(0, qec::CheckType::kX);
      EXPECT_EQ(count.circuits - before, 1u) << "frame " << with_frame;
    }
    EXPECT_NE(syndromes[0], 0u);
    EXPECT_EQ(syndromes[0], syndromes[1]);
    EXPECT_EQ(signs, (std::vector<int>{-1, -1}));
  }
}

// --- Checkpoints written before the diagnostics became reads ----------

std::string file_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// tests/golden/<fixture>/ holds a campaign state dir (journal.jsonl and
/// stack.ckpt) that the circuit-probe implementation interrupted
/// mid-trial, and complete.jsonl, the journal it wrote for the same
/// campaign run without interruption.  Resuming here must reproduce
/// that journal byte for byte.
void expect_parent_resume(const char* fixture, bench::CampaignOptions options,
                          std::size_t windows_resumed) {
  const std::filesystem::path golden =
      std::filesystem::path(QPF_TEST_GOLDEN_DIR) / fixture;
  const std::filesystem::path dir = std::string("parent_checkpoint_") + fixture;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  for (const char* file : {"journal.jsonl", "stack.ckpt"}) {
    std::filesystem::copy_file(golden / file, dir / file);
  }
  options.state_dir = dir.string();
  const bench::CampaignResult result = bench::run_ler_campaign(options);
  EXPECT_FALSE(result.checkpoint_recovered) << result.checkpoint_warning;
  EXPECT_EQ(result.windows_resumed, windows_resumed);
  EXPECT_EQ(file_bytes(dir / "journal.jsonl"),
            file_bytes(golden / "complete.jsonl"));
  std::filesystem::remove_all(dir);
}

bench::CampaignOptions parent_campaign(bool with_frame) {
  bench::CampaignOptions options;
  options.config.physical_error_rate = with_frame ? 1e-3 : 2e-3;
  options.config.with_pauli_frame = with_frame;
  options.config.basis = with_frame ? qec::CheckType::kZ : qec::CheckType::kX;
  options.config.target_logical_errors = 3;
  options.config.seed = with_frame ? 1601 : 1602;
  options.runs = 2;
  return options;
}

TEST(ParentCheckpointTest, FrameTrialResumesToTheParentJournal) {
  // Interrupted at window 1000 of trial 0.
  expect_parent_resume("parent-ckpt-pf", parent_campaign(true), 1000);
}

TEST(ParentCheckpointTest, NoFrameTrialResumesToTheParentJournal) {
  // Trial 0 journaled; interrupted at window 150 of trial 1.
  expect_parent_resume("parent-ckpt-nopf", parent_campaign(false), 150);
}

}  // namespace
}  // namespace qpf
