// Tests for the differential fuzzing engine itself: the seed chain,
// the constrained generator, the shrinker, corpus round-trips, and the
// determinism contract (identical options => byte-identical triage
// report).  The oracle sensitivity tests live in
// test_fuzz_mutations.cpp; corpus replays in test_corpus_replay.cpp.
#include "fuzz/engine.h"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

#include "circuit/error.h"
#include "circuit/qasm.h"
#include "fuzz/generator.h"
#include "fuzz/seeds.h"
#include "fuzz/shrinker.h"
#include "seed_support.h"
#include "stabilizer/pauli_string.h"
#include "stabilizer/tableau.h"

namespace qpf::fuzz {
namespace {

// --- Seed chain -------------------------------------------------------

TEST(FuzzSeedsTest, SplitMixIsDeterministicAndLabelSeparated) {
  EXPECT_EQ(exec::splitmix64(1), exec::splitmix64(1));
  EXPECT_NE(exec::splitmix64(1), exec::splitmix64(2));
  // Sub-streams with different labels never coincide on small indices
  // (the failure mode of ad-hoc seed+k schemes like 41+i vs 43+i).
  std::set<std::uint64_t> seen;
  for (std::uint64_t label = 0; label < 64; ++label) {
    for (std::uint64_t k = 0; k < 16; ++k) {
      seen.insert(exec::task_seed(exec::task_seed(7, label), k));
    }
  }
  EXPECT_EQ(seen.size(), 64u * 16u);
}

TEST(FuzzSeedsTest, SplitMixDrawsAreInRange) {
  exec::SplitMix rng(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(7), 7u);
    const double u = rng.unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(FuzzSeedsTest, LabelHashDistinguishesOracleNames) {
  std::set<std::uint64_t> hashes;
  for (const OracleSpec& spec : all_oracles()) {
    hashes.insert(label_hash(spec.name));
  }
  EXPECT_EQ(hashes.size(), all_oracles().size());
}

// --- Generator --------------------------------------------------------

bool slot_conflict_free(const Circuit& circuit) {
  for (const SlotView slot : circuit) {
    std::set<Qubit> used;
    for (const Operation& op : slot) {
      for (int i = 0; i < op.arity(); ++i) {
        if (!used.insert(op.qubit(i)).second) {
          return false;
        }
      }
    }
  }
  return true;
}

bool contains_category(const Circuit& circuit,
                       bool (*pred)(const Operation&)) {
  for (const SlotView slot : circuit) {
    for (const Operation& op : slot) {
      if (pred(op)) {
        return true;
      }
    }
  }
  return false;
}

bool is_non_clifford(const Operation& op) {
  return op.gate() == GateType::kT || op.gate() == GateType::kTdag;
}

bool is_prep_or_measure(const Operation& op) {
  return op.gate() == GateType::kPrepZ || op.gate() == GateType::kMeasureZ;
}

TEST(FuzzGeneratorTest, RespectsPalettesAndSlotInvariant) {
  const std::uint64_t base = test::test_seed(11);
  QPF_ANNOUNCE_SEED(base);
  for (std::uint64_t i = 0; i < 50; ++i) {
    const FuzzCase fc = generate_case(exec::task_seed(base, i));
    EXPECT_GE(fc.num_qubits, 2u);
    EXPECT_LE(fc.num_qubits, 6u);
    for (const Circuit* c :
         {&fc.unitary, &fc.unitary_t, &fc.measured, &fc.stream}) {
      EXPECT_TRUE(slot_conflict_free(*c));
    }
    // The pure unitary admits neither T nor prep/measure; unitary_t
    // admits T only; measured admits prep/measure only.
    EXPECT_FALSE(contains_category(fc.unitary, is_non_clifford));
    EXPECT_FALSE(contains_category(fc.unitary, is_prep_or_measure));
    EXPECT_FALSE(contains_category(fc.unitary_t, is_prep_or_measure));
    EXPECT_FALSE(contains_category(fc.measured, is_non_clifford));
    // The measured circuit ends with a measure-all slot.
    const SlotView last = fc.measured.slot(fc.measured.num_slots() - 1);
    EXPECT_EQ(last.size(), fc.num_qubits);
    for (const Operation& op : last) {
      EXPECT_EQ(op.gate(), GateType::kMeasureZ);
    }
  }
}

TEST(FuzzGeneratorTest, SameSeedSameCase) {
  const FuzzCase a = generate_case(99);
  const FuzzCase b = generate_case(99);
  EXPECT_EQ(to_qasm(a.stream), to_qasm(b.stream));
  EXPECT_EQ(to_qasm(a.measured), to_qasm(b.measured));
  const FuzzCase c = generate_case(100);
  EXPECT_NE(to_qasm(a.stream), to_qasm(c.stream));
}

TEST(FuzzGeneratorTest, InverseComposesToIdentity) {
  const std::uint64_t base = test::test_seed(5);
  QPF_ANNOUNCE_SEED(base);
  for (std::uint64_t i = 0; i < 10; ++i) {
    const FuzzCase fc = generate_case(exec::task_seed(base, i));
    // unitary + inverse_of(unitary) must leave every stabilizer row of
    // a tableau at its initial value.
    stab::Tableau tab(fc.num_qubits);
    Circuit round_trip = fc.unitary;
    round_trip.append_circuit(inverse_of(fc.unitary));
    for (const SlotView slot : round_trip) {
      for (const Operation& op : slot) {
        tab.apply_unitary(op);
      }
    }
    for (std::size_t q = 0; q < fc.num_qubits; ++q) {
      const stab::PauliString row = tab.stabilizer(q);
      EXPECT_EQ(row.sign(), +1);
      for (std::size_t t = 0; t < fc.num_qubits; ++t) {
        EXPECT_EQ(row.z_bit(t), t == q);
        EXPECT_FALSE(row.x_bit(t));
      }
    }
  }
}

TEST(FuzzGeneratorTest, InverseRejectsMeasurement) {
  Circuit c;
  c.append(GateType::kMeasureZ, 0);
  EXPECT_THROW((void)inverse_of(c), std::invalid_argument);
}

// --- Shrinker ---------------------------------------------------------

TEST(FuzzShrinkerTest, ShrinksToMinimalWitness) {
  // Failure = "contains an H"; the only H sits on qubit 2 amid 12
  // slots of chaff, so the minimal witness is 1 gate on 1 qubit.
  Circuit big;
  for (int s = 0; s < 12; ++s) {
    TimeSlot slot;
    slot.add(Operation{GateType::kX, 0});
    slot.add(Operation{GateType::kS, 1});
    if (s == 7) {
      slot.add(Operation{GateType::kH, 2});
    }
    big.append_slot(std::move(slot));
  }
  const auto fails = [](const Circuit& c) {
    for (const SlotView slot : c) {
      for (const Operation& op : slot) {
        if (op.gate() == GateType::kH) {
          return true;
        }
      }
    }
    return false;
  };
  const ShrinkResult result = shrink_circuit(big, fails, 400);
  EXPECT_TRUE(fails(result.circuit));
  EXPECT_EQ(result.circuit.num_operations(), 1u);
  // Qubit compaction: the lone H ends up on qubit 0.
  EXPECT_EQ(result.circuit.min_register_size(), 1u);
  EXPECT_LE(result.evaluations, 400u);
}

TEST(FuzzShrinkerTest, RespectsEvaluationBudget) {
  Circuit big;
  for (int s = 0; s < 40; ++s) {
    big.append_in_new_slot(Operation{GateType::kH, 0});
  }
  std::size_t calls = 0;
  const auto fails = [&calls](const Circuit& c) {
    ++calls;
    return c.num_operations() >= 2;
  };
  const ShrinkResult result = shrink_circuit(big, fails, 25);
  EXPECT_LE(result.evaluations, 25u);
  EXPECT_GE(calls, result.evaluations);
  EXPECT_TRUE(fails(result.circuit));
}

// --- Corpus round-trip ------------------------------------------------

TEST(FuzzCorpusTest, ReproducerRoundTrips) {
  Reproducer rep;
  rep.oracle = "mirror-chp";
  rep.case_seed = 0xdeadbeef12345678ULL;
  rep.detail = "qubit 1 read '1'";
  rep.circuit.append(GateType::kH, 0);
  rep.circuit.append_in_new_slot(Operation{GateType::kCnot, 0, 1});
  const std::string text = to_text(rep);
  const Reproducer back = parse_reproducer(text);
  EXPECT_EQ(back.oracle, rep.oracle);
  EXPECT_EQ(back.case_seed, rep.case_seed);
  EXPECT_EQ(back.detail, rep.detail);
  EXPECT_EQ(back.circuit, rep.circuit);
  EXPECT_EQ(corpus_file_name(back), "mirror-chp-deadbeef12345678.qasm");
}

TEST(FuzzCorpusTest, MalformedHeadersRejected) {
  EXPECT_THROW((void)parse_reproducer("qubits 1\nh q0\n"), Error);
  EXPECT_THROW((void)parse_reproducer("# qpf-fuzz reproducer v1\nqubits 1\n"),
               Error);
}

// --- Engine determinism and the triage report -------------------------

TEST(FuzzEngineTest, IdenticalSeedsGiveIdenticalReports) {
  FuzzOptions options;
  options.seed = 2026;
  options.cases = 4;
  const std::string a = to_json(run_fuzz(options));
  const std::string b = to_json(run_fuzz(options));
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"schema\": \"qpf-fuzz-triage-v1\""), std::string::npos);
  EXPECT_NE(a.find("\"verdict\": \"PASS\""), std::string::npos);
}

TEST(FuzzEngineTest, CleanBuildPassesEveryOracle) {
  FuzzOptions options;
  options.seed = 31;
  options.cases = 6;
  const FuzzReport report = run_fuzz(options);
  EXPECT_TRUE(report.pass());
  EXPECT_EQ(report.passes + report.skips, report.oracle_runs);
  // Every registered oracle actually ran.
  EXPECT_GE(report.oracle_runs,
            options.cases * (all_oracles().size() - 2));
}

TEST(FuzzEngineTest, OracleFilterRestrictsRuns) {
  FuzzOptions options;
  options.seed = 8;
  options.cases = 3;
  options.oracles = {"mirror-chp"};
  const FuzzReport report = run_fuzz(options);
  EXPECT_EQ(report.oracle_runs, 3u);
  EXPECT_TRUE(report.pass());
}

TEST(FuzzEngineTest, ReplayUnknownOracleThrows) {
  Reproducer rep;
  rep.oracle = "no-such-oracle";
  rep.case_seed = 1;
  EXPECT_THROW((void)replay_reproducer(rep), Error);
}

}  // namespace
}  // namespace qpf::fuzz
