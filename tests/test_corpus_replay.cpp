// Regression suite over the committed fuzz corpus: every reproducer in
// tests/corpus/ — each one a genuinely shrunk witness from a
// planted-bug fuzz run — must replay cleanly through its recorded
// oracle on a clean build, and through every other structurally
// compatible oracle.  A failure here means a shipped change
// reintroduced a bug an earlier fuzz campaign already minimized.
//
// QPF_FUZZ_CORPUS_DIR is injected by tests/CMakeLists.txt and points
// at the source-tree corpus, so newly committed reproducers are picked
// up without reconfiguring.
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "fuzz/engine.h"

namespace qpf::fuzz {
namespace {

std::vector<std::string> corpus_files() { return list_corpus(QPF_FUZZ_CORPUS_DIR); }

bool contains_gate(const Circuit& circuit, GateType g) {
  for (const SlotView slot : circuit) {
    for (const Operation& op : slot) {
      if (op.gate() == g) {
        return true;
      }
    }
  }
  return false;
}

bool invertible(const Circuit& circuit) {
  return !contains_gate(circuit, GateType::kMeasureZ) &&
         !contains_gate(circuit, GateType::kPrepZ);
}

bool clifford_only(const Circuit& circuit) {
  return invertible(circuit) && !contains_gate(circuit, GateType::kT) &&
         !contains_gate(circuit, GateType::kTdag);
}

class CorpusReplay : public ::testing::TestWithParam<std::string> {};

TEST_P(CorpusReplay, RecordedOraclePassesOnCleanBuild) {
  const Reproducer rep = load_reproducer(GetParam());
  EXPECT_FALSE(rep.oracle.empty());
  EXPECT_NE(rep.case_seed, 0u);
  const OracleOutcome outcome = replay_reproducer(rep);
  EXPECT_FALSE(outcome.skipped) << outcome.detail;
  EXPECT_TRUE(outcome.passed)
      << rep.oracle << " regressed on " << GetParam() << ": "
      << outcome.detail;
}

TEST_P(CorpusReplay, CompatibleOraclesAgree) {
  const Reproducer rep = load_reproducer(GetParam());
  const std::uint64_t seed =
      exec::task_seed(rep.case_seed, label_hash("cross"));
  for (const OracleSpec& spec : all_oracles()) {
    // Route the witness only through oracles whose structural
    // preconditions it meets: unitary-kind oracles build inverses
    // (no prep/measure), and the tableau-backed backend diff is
    // Clifford-only.  Any circuit is a valid arbiter stream.
    bool compatible = false;
    switch (spec.kind) {
      case CircuitKind::kStream:
        compatible = true;
        break;
      case CircuitKind::kUnitary:
        // These oracles run on the CHP tableau substrate: Clifford only.
        compatible = clifford_only(rep.circuit);
        break;
      case CircuitKind::kUnitaryT:
        // State-vector substrate: any invertible body, T included.
        compatible = invertible(rep.circuit);
        break;
      case CircuitKind::kMeasured:
      case CircuitKind::kNone:
        break;
    }
    if (!compatible) {
      continue;
    }
    const OracleOutcome outcome = spec.run(rep.circuit, seed);
    EXPECT_TRUE(outcome.passed || outcome.skipped)
        << spec.name << " rejected corpus witness " << GetParam() << ": "
        << outcome.detail;
  }
}

TEST(CorpusTest, CommittedCorpusIsNonTrivial) {
  const std::vector<std::string> files = corpus_files();
  // The corpus ships with at least 3 shrunk planted-bug witnesses.
  EXPECT_GE(files.size(), 3u);
  for (const std::string& path : files) {
    const Reproducer rep = load_reproducer(path);
    // Committed witnesses are genuinely shrunk: a handful of gates.
    EXPECT_GE(rep.circuit.num_operations(), 1u) << path;
    EXPECT_LE(rep.circuit.num_operations(), 8u) << path;
    EXPECT_NE(find_oracle(rep.oracle), nullptr) << path;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllReproducers, CorpusReplay, ::testing::ValuesIn(corpus_files()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      // Sanitize the path into a gtest-legal test name.
      std::string name = info.param;
      const std::size_t slash = name.find_last_of('/');
      if (slash != std::string::npos) {
        name = name.substr(slash + 1);
      }
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) {
          c = '_';
        }
      }
      return name;
    });

}  // namespace
}  // namespace qpf::fuzz
