// The differential fuzzing engine: seed chain, oracle scheduling,
// shrinking, and the deterministic JSON triage report.
//
// A run is a pure function of its FuzzOptions: case seeds come from a
// splitmix64 chain over the master seed, every oracle derives its draws
// from exec::task_seed(case_seed, oracle name), and the triage report
// contains no timing or host data — so the same options produce a
// byte-identical report, and any failure line is replayable from
// (oracle, case_seed) alone.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/corpus.h"
#include "fuzz/generator.h"
#include "fuzz/oracles.h"

namespace qpf::fuzz {

/// JSON triage schema identifier (tools/check_bench.sh validates it).
inline constexpr const char* kTriageSchema = "qpf-fuzz-triage-v1";

struct FuzzOptions {
  std::uint64_t seed = 1;
  std::size_t cases = 25;
  /// Oracle names to run; empty = every registered oracle.
  std::vector<std::string> oracles;
  /// Skip the state-vector-backed oracles (semantics, mirror-qx).
  bool with_qx = true;
  /// Skip the supervised chaos-convergence oracle.
  bool with_chaos = true;
  /// Shrink failing circuits before reporting.
  bool shrink = true;
  std::size_t max_shrink_evaluations = 400;
  /// Stop the run after this many failures (0 = never stop early).
  std::size_t max_failures = 8;
  /// Worker threads for the --cases fan-out (0 = auto).  The report is
  /// byte-identical for every value: cases fan out over the shared
  /// deterministic executor, results commit in case order, and the
  /// max_failures cutoff is applied at commit, mid-case included; a
  /// case stops applying oracles at the failure the cutoff fires on,
  /// or earlier.  Oracles marked `exclusive` (they swap process-global
  /// fault backends) run on the committing thread only: in the case's
  /// task at one worker, at commit above one.
  std::size_t jobs = 1;
};

/// One triaged failure.
struct FuzzFailure {
  std::string oracle;
  std::size_t case_index = 0;
  std::uint64_t case_seed = 0;
  std::string detail;
  std::size_t original_gates = 0;
  std::size_t shrunk_gates = 0;
  std::size_t shrink_evaluations = 0;
  /// Reproducer text (empty for seed-only oracles with no circuit).
  std::string reproducer;
};

struct FuzzReport {
  std::uint64_t seed = 0;
  std::size_t cases = 0;
  std::size_t oracle_runs = 0;
  std::size_t passes = 0;
  std::size_t skips = 0;
  std::vector<FuzzFailure> failures;

  [[nodiscard]] bool pass() const noexcept { return failures.empty(); }
};

/// Execute a fuzz run.
[[nodiscard]] FuzzReport run_fuzz(const FuzzOptions& options);

/// Deterministic JSON rendering of a report (sorted keys, no times).
[[nodiscard]] std::string to_json(const FuzzReport& report);

/// Replay a corpus reproducer through its recorded oracle.  Throws
/// qpf::Error for an unknown oracle name.
[[nodiscard]] OracleOutcome replay_reproducer(const Reproducer& reproducer);

/// The circuit of `fc` that an oracle of the given kind consumes.
[[nodiscard]] const Circuit& circuit_for(const FuzzCase& fc, CircuitKind kind);

}  // namespace qpf::fuzz
