// The Pauli frame: one Pauli record per qubit plus the stream-rewriting
// logic of Table 3.1 / 5.7.
//
// process() consumes a circuit and produces the circuit that actually
// reaches the physical execution layer: Pauli gates are absorbed into
// records, Clifford gates map the records and pass through, preparation
// resets the record, measurement passes through (results are corrected
// afterwards via correct_measurement()), and non-Clifford gates force a
// flush of the pending records onto the qubits first.  A circuit with no
// Pauli and no non-Clifford gate -- every clean ESM round -- passes
// through unchanged, so process() returns it instead of a copy.
//
// Classical-fault hardening: the record store can optionally be guarded
// against corruption of the frame memory itself (a *classical* fault,
// distinct from the quantum noise the frame exists to track):
//   Protection::kParity — one parity bit per record; detects any
//     single-bit record flip but cannot repair it,
//   Protection::kVote   — two shadow banks + majority vote; repairs any
//     single-bank corruption in place.
// A detected-but-uncorrectable record is recovered by resetting it to I
// (the record half of the Table 3.1 flush): the lost Pauli becomes an
// ordinary physical error for QEC to absorb instead of silently
// corrupting every downstream Clifford conjugation.  All verification
// traffic is counted in FrameHealth.  With Protection::kNone the frame
// is bit-identical to the unguarded implementation.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "circuit/circuit.h"
#include "core/pauli_record.h"
#include "journal/snapshot.h"
#include "stabilizer/pauli_string.h"

namespace qpf::pf {

/// Counters describing what a frame absorbed while processing circuits
/// (the Fig 5.25 / 5.26 "saved gates / time slots" statistics).
struct FrameStats {
  std::size_t input_gates = 0;
  std::size_t output_gates = 0;
  std::size_t paulis_absorbed = 0;
  std::size_t flush_gates_emitted = 0;
  std::size_t input_slots = 0;
  std::size_t output_slots = 0;

  /// May be negative: flushes can emit more gates than were absorbed.
  [[nodiscard]] double gates_saved_fraction() const noexcept {
    return input_gates == 0
               ? 0.0
               : (static_cast<double>(input_gates) -
                  static_cast<double>(output_gates)) /
                     static_cast<double>(input_gates);
  }
  [[nodiscard]] double slots_saved_fraction() const noexcept {
    return input_slots == 0
               ? 0.0
               : (static_cast<double>(input_slots) -
                  static_cast<double>(output_slots)) /
                     static_cast<double>(input_slots);
  }
};

/// Turn values of observables read on the physical state into values
/// on the ideal state: negate values[k] wherever observables[k]
/// anticommutes with the records, one per qubit (physical state =
/// records x ideal state); the observable-level Table 3.2.  Throws
/// std::out_of_range for a qubit without a record.
void correct_values(std::span<const PauliRecord> records,
                    std::span<const stab::SparsePauli> observables,
                    std::span<int> values);

/// Record-store protection scheme against classical memory faults.
enum class Protection : std::uint8_t {
  kNone,    ///< plain records, zero overhead
  kParity,  ///< parity-guarded records: detect-only
  kVote,    ///< triplicated records + majority vote: detect and correct
};

[[nodiscard]] constexpr std::string_view name(Protection p) noexcept {
  switch (p) {
    case Protection::kNone:
      return "none";
    case Protection::kParity:
      return "parity";
    case Protection::kVote:
      return "vote";
  }
  return "?";
}

/// Health report of a guarded record store.
struct FrameHealth {
  std::size_t checks = 0;           ///< guarded record verifications
  std::size_t detected = 0;         ///< corrupted records detected
  std::size_t corrected = 0;        ///< repaired by majority vote
  std::size_t uncorrectable = 0;    ///< detected but unrepairable
  std::size_t recovery_resets = 0;  ///< records recovered by reset to I
  std::size_t scrubs = 0;           ///< completed scrub() passes
};

class PauliFrame {
 public:
  /// All records start at I.
  explicit PauliFrame(std::size_t num_qubits,
                      Protection protection = Protection::kNone);

  [[nodiscard]] std::size_t num_qubits() const noexcept {
    return records_.size();
  }

  [[nodiscard]] Protection protection() const noexcept { return protection_; }

  /// Guarded read: under kParity / kVote this verifies (and may repair
  /// or recover) the record before returning it.
  [[nodiscard]] PauliRecord record(Qubit q) const { return load(q); }
  void set_record(Qubit q, PauliRecord r) { store(q, r); }

  /// Track a Pauli gate without touching hardware (Table 3.3).
  void track(GateType pauli, Qubit q);

  /// Conjugate the records through a Clifford gate (Tables 3.4 / 3.5);
  /// the caller still executes the gate on the qubits.
  void apply_clifford(const Operation& op);

  /// Rewrite a circuit per Table 3.1, updating records, and return the
  /// circuit to run.  A Pauli-free circuit -- no I/X/Y/Z and no T/T† --
  /// has nothing to absorb or flush: its records move and `circuit`
  /// itself comes back, `out` untouched.  Any other circuit is rewritten
  /// into `out`, which comes back: slot structure is preserved where
  /// possible, and slots that become empty are dropped (those are the
  /// "saved time slots").  `out` is cleared first and keeps its
  /// capacity, so a caller that reuses one buffer stops allocating; it
  /// must not be `circuit` itself.  FrameStats move alike on both paths.
  [[nodiscard]] const Circuit& process(const Circuit& circuit, Circuit& out);
  [[nodiscard]] Circuit process(const Circuit& circuit) {
    Circuit out;
    if (&process(circuit, out) == &circuit) {
      return circuit;
    }
    return out;
  }

  /// Correct a raw measurement bit using qubit q's record (Table 3.2).
  [[nodiscard]] bool correct_measurement(Qubit q, bool raw) const {
    return map_measurement(load(q), raw);
  }

  /// pf::correct_values() with this frame's records.  Reads the primary
  /// bank without verification, so it is exact only under
  /// Protection::kNone.
  void correct_values(std::span<const stab::SparsePauli> observables,
                      std::span<int> values) const;

  /// Pending Pauli gates for qubit q, as operations, and reset the
  /// record to I.  (X before Z when both are pending; order only affects
  /// global phase.)
  [[nodiscard]] std::vector<Operation> flush(Qubit q);

  /// Flush every record; returns the correction circuit to execute.
  [[nodiscard]] Circuit flush_all();

  /// True if every record is I.
  [[nodiscard]] bool clean() const noexcept;

  /// Verify every record against its guard in one pass (a memory
  /// scrubbing sweep).  Returns the number of corrupted records
  /// detected during this pass.  No-op under Protection::kNone.
  std::size_t scrub();

  /// Fault injection: overwrite the *primary* record bank only, leaving
  /// guards and shadow banks stale — exactly what a bit flip in the
  /// frame memory does.  Used by tests and fault campaigns.
  void corrupt_record(Qubit q, PauliRecord r) { records_.at(q) = r; }

  [[nodiscard]] const FrameHealth& health() const noexcept { return health_; }
  void reset_health() noexcept { health_ = {}; }

  [[nodiscard]] const FrameStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

  /// "0:I 1:XZ ..." rendering for diagnostics.
  [[nodiscard]] std::string str() const;

  // --- Snapshot / restore (crash-safe experiment engine) -------------
  /// Serialize every record bank, the guards, the protection mode, and
  /// the health / absorption counters.  The banks are saved verbatim
  /// (no verification pass), so even a frame carrying latent corruption
  /// round-trips bit-identically.
  void save(journal::SnapshotWriter& out) const;

  /// Rebuild a frame from a save() stream.  Throws qpf::CheckpointError
  /// on corruption, truncation, or an invalid protection byte.
  [[nodiscard]] static PauliFrame load(journal::SnapshotReader& in);

 private:
  /// Verified read.  Self-healing: under kVote a minority bank is
  /// rewritten, under kParity a mismatch resets the record to I.  The
  /// storage and health counters are mutable so guarded reads stay
  /// usable from const accessors.
  PauliRecord load(Qubit q) const;

  /// Write-through to every bank and guard.
  void store(Qubit q, PauliRecord r) const;

  /// flush(q) appended to `out` with Circuit::append; returns the number
  /// of gates emitted.
  std::size_t flush_into(Qubit q, Circuit& out);

  Protection protection_;
  mutable std::vector<PauliRecord> records_;  ///< primary bank
  mutable std::vector<std::uint8_t> guard_;   ///< parity bits (kParity)
  mutable std::vector<PauliRecord> bank_b_;   ///< shadow banks (kVote)
  mutable std::vector<PauliRecord> bank_c_;
  mutable FrameHealth health_;
  FrameStats stats_;
  Circuit flush_ops_;  ///< process() scratch; not frame state
};

}  // namespace qpf::pf
