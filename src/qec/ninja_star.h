// Run-time model of one SC17 logical qubit (a "ninja star"): the
// tracked properties of Table 5.2, the logical-operation conversions of
// Table 5.1 / 5.3 (§5.1.2), and the window decoder bookkeeping of §5.3.1.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "journal/snapshot.h"
#include "qec/lut_decoder.h"
#include "qec/sc17.h"

namespace qpf::qec {

/// Binary state of a logical qubit (Table 5.2 "state"): 0, 1 or x.
enum class StateValue : std::uint8_t { kZero, kOne, kUnknown };

[[nodiscard]] constexpr char to_char(StateValue v) noexcept {
  switch (v) {
    case StateValue::kZero:
      return '0';
    case StateValue::kOne:
      return '1';
    case StateValue::kUnknown:
      return 'x';
  }
  return '?';
}

/// Syndromes are 8-bit words, bit a = outcome of local ancilla a
/// (1 means the -1 eigenvalue was read).
using Syndrome = std::uint8_t;

class NinjaStar {
 public:
  /// A star occupies 17 register qubits rooted at `base`.  The layout
  /// must outlive the star.
  NinjaStar(Qubit base, const Sc17Layout* layout);

  [[nodiscard]] Qubit base() const noexcept { return base_; }
  [[nodiscard]] const Sc17Layout& layout() const noexcept { return *layout_; }

  // --- Run-time properties (Table 5.2) -------------------------------
  [[nodiscard]] Orientation orientation() const noexcept { return orientation_; }
  [[nodiscard]] DanceMode dance_mode() const noexcept { return dance_; }
  [[nodiscard]] StateValue state() const noexcept { return state_; }
  void set_state(StateValue v) noexcept { state_ = v; }

  // --- Circuit conversion (Table 5.1) ---------------------------------
  /// Reset all data qubits to |0> (ancillas are prepared inside ESM).
  [[nodiscard]] Circuit reset_circuit() const;
  /// X_L: chain of X along the orientation-dependent chain.
  [[nodiscard]] Circuit logical_x_circuit() const;
  /// Z_L: chain of Z.
  [[nodiscard]] Circuit logical_z_circuit() const;
  /// H_L: transversal H on all nine data qubits.
  [[nodiscard]] Circuit logical_h_circuit() const;
  /// Transversal measurement of all nine data qubits.
  [[nodiscard]] Circuit measure_circuit() const;
  // The next three are built once per orientation and dance mode (or
  // basis), on first use, and kept by the star: the references stay
  // valid as long as the star does.
  /// One ESM round in the current orientation and dance mode.
  [[nodiscard]] const Circuit& esm_circuit() const;
  /// Ancilla measurement order of esm_circuit() (local indices).
  [[nodiscard]] const std::vector<int>& esm_measurement_order() const;
  /// Fig 5.10 logical-error detection circuit (borrow local ancilla 0).
  [[nodiscard]] const Circuit& logical_stabilizer_circuit(
      CheckType basis) const;

  /// Transversal CNOT_L / CZ_L; pairing depends on both orientations
  /// (§2.6.1).
  [[nodiscard]] static Circuit logical_cnot_circuit(const NinjaStar& control,
                                                    const NinjaStar& target);
  [[nodiscard]] static Circuit logical_cz_circuit(const NinjaStar& a,
                                                  const NinjaStar& b);

  // --- Property post-processing (Table 5.3) ---------------------------
  void on_reset() noexcept;
  void on_logical_x() noexcept;
  void on_logical_z() noexcept;
  void on_logical_h() noexcept;
  /// `sign` is the +-1 parity of the corrected transversal readout.
  void on_measured(int sign) noexcept;
  static void on_logical_cnot(NinjaStar& control, NinjaStar& target) noexcept;
  static void on_logical_cz(NinjaStar& a, NinjaStar& b) noexcept;

  // --- Window decoding (§5.3.1, Fig 5.9) ------------------------------
  /// Last carried ESM round, adjusted for applied corrections.
  [[nodiscard]] Syndrome carried_syndrome() const noexcept { return carried_; }
  void set_carried_syndrome(Syndrome s) noexcept { carried_ = s; }

  /// Decode one window from its two fresh rounds.  Per check group, a
  /// per-bit majority vote over {carried, r1, r2} filters measurement
  /// errors, the group LUT picks minimum-weight data corrections, and
  /// the carried round is updated to r2 adjusted by the corrections'
  /// signatures.  Returns correction operations on register qubits
  /// (X for Z-check syndromes, Z for X-check syndromes).
  [[nodiscard]] std::vector<Operation> decode_window(Syndrome r1, Syndrome r2);

  /// Decode the very first ESM round after (re)initialization: both
  /// groups are decoded against the ideal all-+1 syndrome, which both
  /// fixes reset errors and gauge-fixes the randomly projected checks
  /// (the X checks for a |0>_L reset).  The carried round becomes 0.
  [[nodiscard]] std::vector<Operation> decode_initialization(Syndrome round);

  /// Initialization gauge fix: decode ONLY the randomly-projected check
  /// group absolutely (the X checks for a |0>_L reset, the Z checks for
  /// a |+>_L preparation) and defer the other group — whose nonzero
  /// bits are real errors — to the next window's agreement logic.
  /// Mis-gauging under noise then only ever installs errors of the
  /// harmless basis.  The gauge group's carried bits become 0; the
  /// deferred group's carried bits copy the observed round.
  [[nodiscard]] std::vector<Operation> decode_gauge(Syndrome round,
                                                    CheckType gauge_basis);

  /// Gauge-fix decode for state injection: like decode_initialization,
  /// but every correction is constrained to commute with both logical
  /// operators (even overlap with the X_L and Z_L chains), so the
  /// injected Bloch vector survives every projection branch.  Normal
  /// orientation only.
  [[nodiscard]] std::vector<Operation> decode_injection(Syndrome round);

  /// Decode the effective-Z-check syndrome for the post-measurement
  /// X-error sweep of §5.1.2.  Returns the local data qubits whose
  /// classical readout must be flipped.  The syndrome should be the
  /// *classical* parity violations of the transversal readout string
  /// (signature(ones, kX)) — code states satisfy every Z-check parity,
  /// so any violation pinpoints pre-readout flips without being fooled
  /// by errors that strike after readout.
  [[nodiscard]] std::vector<int> decode_partial_round(Syndrome syndrome);

  /// Syndrome bits (within the 8-bit word) that errors on `data_locals`
  /// of the given error basis would set.  kX errors show on effective-Z
  /// checks and vice versa.
  [[nodiscard]] Syndrome signature(const std::vector<int>& data_locals,
                                   CheckType error_basis) const;

  // --- Verification support (src/fuzz lut-window oracle) --------------
  /// The spatial LUT serving the basis' check group in the current
  /// orientation — the same object decode_window consults, so an
  /// independent reference decoder can be diffed against the real one.
  [[nodiscard]] const LutDecoder& lut(CheckType basis) const;
  /// Local ancilla indices of the basis' check group, in LUT bit order
  /// (bit b of a group syndrome is ancilla group_ancillas(basis)[b]).
  [[nodiscard]] std::array<int, 4> group_ancillas(CheckType basis) const;

  // --- Snapshot / restore (crash-safe experiment engine) -------------
  /// Serialize the Table 5.2 run-time properties and the decoder's
  /// carried round.  The LUTs are pure functions of the layout and are
  /// not persisted.
  void save(journal::SnapshotWriter& out) const;

  /// Restore the run-time properties into this star.  Throws
  /// qpf::CheckpointError on corruption or a base-qubit mismatch.
  void load(journal::SnapshotReader& in);

 private:
  /// Checks whose effective type equals t, in ascending ancilla order.
  [[nodiscard]] std::array<const Check*, 4> group(CheckType t) const;
  /// Extract a 4-bit group syndrome from an 8-bit word.
  [[nodiscard]] static unsigned extract(Syndrome s,
                                        const std::array<const Check*, 4>& g);

  Qubit base_;
  const Sc17Layout* layout_;
  Orientation orientation_ = Orientation::kNormal;
  DanceMode dance_ = DanceMode::kZOnly;  // initial value per Table 5.2
  StateValue state_ = StateValue::kUnknown;
  Syndrome carried_ = 0;
  LutDecoder lut_low_;   // ancillas 0..3 (X checks in normal orientation)
  LutDecoder lut_high_;  // ancillas 4..7 (Z checks in normal orientation)
  LutDecoder lut_low_injection_;   // Z fixes commuting with X_L
  LutDecoder lut_high_injection_;  // X fixes commuting with Z_L
  // Circuit caches, indexed by orientation * 2 + dance mode (or basis);
  // empty until first use.  Pure functions of the layout and the
  // properties above, so not snapshot state.
  mutable std::array<Circuit, 4> esm_;
  mutable std::array<std::vector<int>, 4> esm_order_;
  mutable std::array<Circuit, 4> stabilizer_;
};

}  // namespace qpf::qec
