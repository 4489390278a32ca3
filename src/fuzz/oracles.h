// The oracle set of the differential fuzzing engine.
//
// Each oracle is a pure, seed-deterministic property check.  Most
// consume a circuit produced by the generator (and are therefore
// shrinkable: any sub-circuit that still fails is a smaller witness);
// two are self-contained sweeps driven only by the seed.
//
//   conjugation — Tables 3.3–3.5 gate-by-gate: PauliFrame's record
//                 updates vs the stabilizer tableau's conjugation of
//                 the X/Z generators (phases ignored; records are
//                 phase-free).  Exhaustive over gates × records.
//   arbiter     — Fig 3.12 routing invariants on an unconstrained ISA
//                 stream: Paulis never reach the PEL, Cliffords pass
//                 through verbatim, non-Cliffords are preceded by
//                 exactly the pending record's flush and leave clean
//                 records, resets clear records.
//   semantics   — the frame identity R1 ∘ C' = C ∘ R0 checked as state
//                 equality (up to global phase) on the dense simulator,
//                 for circuits including T (flush paths).
//   mirror      — self-checking mirror programs (U U† [prep] measure):
//                 every corrected outcome must be 0, for chp/qx cores
//                 with the frame on and off.
//   sampling    — frame-on vs frame-off outcome statistics on circuits
//                 with mid-circuit measurement, fixed seed chain.
//   backend-diff— chp vs qx outcome statistics, frame off: the only
//                 oracle sensitive to mis-signed tableau rows (sign
//                 errors pair-cancel through mirrors and hit both
//                 sides of chp-vs-chp comparisons).
//   metamorphic — injecting a Pauli into the frame *and* onto the
//                 hardware mid-program leaves corrected outcomes
//                 invariant (physical = record × ideal).
//   snapshot    — save/restore at a random cut is bit-exact: identical
//                 downstream outcomes and identical re-snapshot bytes.
//   chaos       — a supervised stack under a scripted crash schedule
//                 either converges to the fault-free transcript,
//                 degrades visibly, or raises a typed SupervisionError.
//   lut-window  — NinjaStar::decode_window vs an independent reference
//                 decoder, window by window, on random syndrome
//                 streams (correction sets and carried rounds).
//   serve-codec — qpf_serve wire-protocol armor: frames round-trip
//                 bit-exactly through arbitrary fragmentation, and no
//                 single-bit corruption or truncation is ever decoded
//                 into a different frame without a ProtocolError.
//   io-fault    — checkpoint crash-consistency under a seeded FaultFs
//                 schedule: a counting pass proves durability-protocol
//                 conformance (every rename is followed by a parent-dir
//                 fsync — planted bug 13 drops it), then a sticky
//                 fail-at-op-k sweep over every durable op must yield
//                 either success with the new bytes or a typed
//                 CheckpointError with a complete old/new checkpoint on
//                 disk — never a torn mix, never a foreign exception.
//   net-fault   — exactly-once recovery under a FaultNet schedule: an
//                 in-process qpf_serve conversation (submit the program
//                 twice, close) through a RetryClient must produce a
//                 transcript byte-identical to the fault-free reference
//                 when a reply read is reset mid-stream (the resent id
//                 must replay from the dedup window — planted bug 14
//                 re-executes instead), when a submit frame is garbled
//                 on the wire (the CRC armor must reject it — planted
//                 bug 12 accepts the damage), and under seeded short
//                 sends.
//   executor-determinism — the shared work-stealing executor's commit
//                 contract: a run_ordered() transcript (committed
//                 index/value pairs) must equal the seed-chain
//                 prediction, even when the oracle deterministically
//                 forces task 0 to *finish last* (planted bug 15
//                 commits in arrival order and fails exactly that
//                 schedule).
//   peek-vs-probe — NinjaStarLayer's diagnostics read the probe syndrome
//                 and the logical sign through Core::peek.  After noisy
//                 windows, logical X/Z/H, injected Paulis and H's that
//                 leave a check or ancilla undetermined (d 3 or 5, frame
//                 on or off, either basis), both must equal the probe
//                 circuits on a snapshot twin that cannot read, and the
//                 read must answer exactly when the twin's circuit draws
//                 no randomness (planted bug 16 drops the Z half of the
//                 frame's flip).
//   frame-core  — FrameCore against ChpCore from one seed on random
//                 Clifford+Pauli batches: parity rounds repeated with
//                 fresh Paulis (so the memo hits, with X records on
//                 measured ancillas) and scrambles with resets and
//                 random measurements (so the frame absorbs pivots);
//                 get_state, random peeks and save_state bytes must
//                 agree after every batch, and at a random cut the run
//                 resumes from those bytes (planted bug 17 drops the X
//                 record from a memo hit).
//   noise-draws — DepolarizingModel::inject against a reference kept
//                 here, the per-location loop on its own mt19937_64:
//                 on a stream circuit in a wider register (so every
//                 slot has idle qubits), at p in {0, 1e-3, 0.05, 0.5, 1},
//                 symmetric and biased, the returned circuit, the tally
//                 and the save() bytes must match after every injection
//                 (planted bug 18 redraws the location that fired).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/circuit.h"

namespace qpf::fuzz {

/// Verdict of one oracle application.
struct OracleOutcome {
  bool passed = true;
  bool skipped = false;   ///< not applicable (e.g. too many qubits for qx)
  std::string detail;     ///< human-readable failure description

  static OracleOutcome pass() { return {}; }
  static OracleOutcome skip(std::string why) {
    return OracleOutcome{true, true, std::move(why)};
  }
  static OracleOutcome fail(std::string why) {
    return OracleOutcome{false, false, std::move(why)};
  }
};

/// Which generated circuit an oracle consumes.
enum class CircuitKind : std::uint8_t {
  kNone,      ///< seed-driven sweep, no circuit input
  kUnitary,   ///< FuzzCase::unitary
  kUnitaryT,  ///< FuzzCase::unitary_t
  kMeasured,  ///< FuzzCase::measured
  kStream,    ///< FuzzCase::stream
};

// --- The oracles ------------------------------------------------------
// Circuit-consuming oracles take (circuit, seed); `seed` drives every
// internal draw, so (circuit, seed) fully reproduces a failure.

[[nodiscard]] OracleOutcome check_conjugation_tables();
[[nodiscard]] OracleOutcome check_arbiter_stream(const Circuit& stream,
                                                 std::uint64_t seed);
[[nodiscard]] OracleOutcome check_frame_semantics(const Circuit& unitary,
                                                  std::uint64_t seed);
[[nodiscard]] OracleOutcome check_mirror_chp(const Circuit& body,
                                             std::uint64_t seed);
[[nodiscard]] OracleOutcome check_mirror_qx(const Circuit& body,
                                            std::uint64_t seed);
[[nodiscard]] OracleOutcome check_sampling(const Circuit& measured,
                                           std::uint64_t seed);
[[nodiscard]] OracleOutcome check_backend_diff(const Circuit& unitary,
                                               std::uint64_t seed);
[[nodiscard]] OracleOutcome check_metamorphic_injection(const Circuit& body,
                                                        std::uint64_t seed);
[[nodiscard]] OracleOutcome check_snapshot_roundtrip(const Circuit& body,
                                                     std::uint64_t seed);
[[nodiscard]] OracleOutcome check_chaos_convergence(const Circuit& measured,
                                                    std::uint64_t seed);
[[nodiscard]] OracleOutcome check_lut_window(std::uint64_t seed);
[[nodiscard]] OracleOutcome check_serve_codec(const Circuit& stream,
                                              std::uint64_t seed);
[[nodiscard]] OracleOutcome check_io_fault(const Circuit& body,
                                           std::uint64_t seed);
[[nodiscard]] OracleOutcome check_net_fault(const Circuit& body,
                                            std::uint64_t seed);
[[nodiscard]] OracleOutcome check_executor_determinism(std::uint64_t seed);
[[nodiscard]] OracleOutcome check_peek_vs_probe(std::uint64_t seed);
[[nodiscard]] OracleOutcome check_frame_core(std::uint64_t seed);
[[nodiscard]] OracleOutcome check_noise_draws(const Circuit& stream,
                                              std::uint64_t seed);

// --- Registry ---------------------------------------------------------

struct OracleSpec {
  const char* name;
  CircuitKind kind;
  /// Run the oracle on its consumed circuit (ignored for kNone).
  OracleOutcome (*run)(const Circuit&, std::uint64_t);
  /// Run once per engine invocation instead of once per case.
  bool once_per_run = false;
  /// Touches process-global state (fault-injection backends, chdir-like
  /// ambient fixtures).  The parallel engine runs exclusive oracles on
  /// the commit thread only, never concurrently with anything.
  bool exclusive = false;
};

/// All registered oracles, in deterministic execution order.
[[nodiscard]] const std::vector<OracleSpec>& all_oracles();

/// Look up a spec by name; nullptr if unknown.
[[nodiscard]] const OracleSpec* find_oracle(const std::string& name);

}  // namespace qpf::fuzz
