// Run-time model of one surface-code logical qubit, a "ninja star": the
// SC17 of the thesis at d = 3, and every odd distance up to
// kMaxDistance beyond it.  It holds the tracked properties of Table
// 5.2, the logical-operation conversions of Table 5.1 / 5.3 (§5.1.2),
// and the window decoder bookkeeping of §5.3.1.
//
// The spatial decoder follows from the distance: the Fig 5.9 look-up
// tables at d = 3 (the paper's decoder), minimum-weight matching
// (MatchingDecoder) beyond.  The temporal rule is the same for both: a
// window acts on a check group only when its two fresh rounds agree.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "journal/snapshot.h"
#include "qec/lut_decoder.h"
#include "qec/surface_code.h"
#include "stabilizer/pauli_string.h"

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

/// Syndromes are words, bit a = outcome of local ancilla a (1 means the
/// -1 eigenvalue was read).
using Syndrome = std::uint64_t;

/// One logical qubit of any odd distance d <= kMaxDistance (the SC17
/// at d = 3).
class NinjaStar {
 public:
  /// Largest distance whose d^2 - 1 checks fit one Syndrome word.
  static constexpr int kMaxDistance = 7;

  /// A star occupies layout->num_qubits() register qubits rooted at
  /// `base`.  The layout must be square with distance <= kMaxDistance
  /// (StackConfigError otherwise) and outlive the star.
  NinjaStar(Qubit base, const SurfaceCodeLayout* layout);

  [[nodiscard]] Qubit base() const noexcept { return base_; }
  [[nodiscard]] const SurfaceCodeLayout& layout() const noexcept {
    return *layout_;
  }

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
  /// H_L: transversal H on all data qubits.
  [[nodiscard]] Circuit logical_h_circuit() const;
  /// Transversal measurement of all data qubits.
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
  // The observables that decide the two circuits above without running
  // them, cached the same way.  When all of them are fixed, the circuit
  // draws no randomness and reads exactly their values.
  /// Each measured check in esm_measurement_order(), then Z of each of
  /// those ancillas (the ones the round resets).
  [[nodiscard]] const std::vector<stab::SparsePauli>& esm_observables() const;
  /// The logical chain logical_stabilizer_circuit(basis) measures, then
  /// Z of the ancilla it borrows and resets.
  [[nodiscard]] const std::vector<stab::SparsePauli>&
  logical_stabilizer_observables(CheckType basis) const;

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

  // --- Readout (shared by arch::NinjaStarLayer and the QCU) -----------
  /// Syndrome of the esm_circuit() round just executed.  `measured(q)`
  /// returns the outcome of register qubit q; ancillas idle in the
  /// current dance mode keep their carried bits.
  template <typename Measured>
  [[nodiscard]] Syndrome round_syndrome(const Measured& measured) const {
    Syndrome syndrome = carried_;
    for (const int ancilla : esm_measurement_order()) {
      const Syndrome bit = Syndrome{1} << ancilla;
      syndrome = measured(layout_->ancilla_qubit(base_, ancilla))
                     ? syndrome | bit
                     : syndrome & ~bit;
    }
    return syndrome;
  }

  /// Logical value (+1 / -1) of the measure_circuit() readout just
  /// executed, read through `measured(q)` as above, and recorded with
  /// on_measured().  The readout is corrected for X flips first: code
  /// states satisfy every Z-check parity, so the parity violations of
  /// the readout string pinpoint pre-readout flips without being fooled
  /// by errors that strike after readout (§5.1.2).
  template <typename Measured>
  int measured_sign(const Measured& measured) {
    std::uint64_t ones = 0;
    for (std::size_t d = 0; d < layout_->num_data(); ++d) {
      if (measured(layout_->data_qubit(base_, static_cast<int>(d)))) {
        ones |= std::uint64_t{1} << d;
      }
    }
    return readout_sign(ones);
  }

  // --- Window decoding (§5.3.1, Fig 5.9) ------------------------------
  /// Last carried ESM round, adjusted for applied corrections.
  [[nodiscard]] Syndrome carried_syndrome() const noexcept { return carried_; }
  void set_carried_syndrome(Syndrome s) noexcept { carried_ = s; }

  /// Decode one window from its two fresh rounds.  Per check group: if
  /// r1 and r2 disagree, defer (r2 is carried into the next window);
  /// otherwise decode their common syndrome into minimum-weight data
  /// corrections.  The carried round becomes r2 adjusted by the
  /// corrections' signatures.  Returns correction operations on
  /// register qubits (X for Z-check syndromes, Z for X-check
  /// syndromes; X and Z on one qubit merge into Y).
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
  /// injected Bloch vector survives every projection branch.  d = 3 and
  /// normal orientation only.
  [[nodiscard]] std::vector<Operation> decode_injection(Syndrome round);

  /// Decode the effective-Z-check syndrome for the post-measurement
  /// X-error sweep of §5.1.2.  Returns the local data qubits whose
  /// classical readout must be flipped.
  [[nodiscard]] std::vector<int> decode_partial_round(Syndrome syndrome);

  /// Syndrome bits that errors on `data_locals` of the given error basis
  /// would set.  kX errors show on effective-Z checks and vice versa.
  [[nodiscard]] Syndrome signature(const std::vector<int>& data_locals,
                                   CheckType error_basis) const;

  /// The spatial LUT serving the basis' check group in the current
  /// orientation — the object decode_window consults at d = 3, so the
  /// lut-window fuzz oracle can diff an independent reference decoder
  /// against the real one.  Throws std::logic_error beyond d = 3.
  [[nodiscard]] const LutDecoder& lut(CheckType basis) const;

  // --- Snapshot / restore (crash-safe experiment engine) -------------
  /// Serialize the Table 5.2 run-time properties and the decoder's
  /// carried round, (d^2 - 1) / 8 bytes (d^2 - 1 is a multiple of 8 for
  /// odd d).  The decoders are pure functions of the layout and are not
  /// persisted.
  void save(journal::SnapshotWriter& out) const;

  /// Restore the run-time properties into this star.  Throws
  /// qpf::CheckpointError on corruption or a base-qubit mismatch.
  void load(journal::SnapshotReader& in);

 private:
  /// Hardware check group measuring `basis` this round: 0 for the
  /// checks of normal-orientation type X (the low ancillas), 1 for the
  /// Z checks.
  [[nodiscard]] int group_of(CheckType basis) const noexcept {
    return (basis == CheckType::kX) == (orientation_ == Orientation::kNormal)
               ? 0
               : 1;
  }
  /// A group's bits of a syndrome word, bit b = the group's b'th check.
  [[nodiscard]] Syndrome group_bits(Syndrome s, int group) const noexcept {
    return (s >> (group * group_size_)) & group_mask_;
  }
  /// Spatial decode of one group's bits: the LUT at d = 3, matching
  /// beyond.  The reference stays valid until the next call.
  [[nodiscard]] const std::vector<int>& decode_group(int group, Syndrome bits);
  /// Group bits that flips of `data` set.
  [[nodiscard]] Syndrome group_signature(int group,
                                         const std::vector<int>& data) const;
  /// Append the corrections for data qubits flagged by `check_basis`.
  void append_fixes(std::vector<Operation>& out, CheckType check_basis,
                    const std::vector<int>& data) const;
  [[nodiscard]] int readout_sign(std::uint64_t ones);
  /// Snapshot size of the carried round: (d^2 - 1) / 8 bytes.
  [[nodiscard]] int carried_bytes() const noexcept {
    return 2 * group_size_ / 8;
  }

  Qubit base_;
  const SurfaceCodeLayout* layout_;
  int group_size_;         ///< checks per group: (d^2 - 1) / 2
  Syndrome group_mask_;
  Orientation orientation_ = Orientation::kNormal;
  DanceMode dance_ = DanceMode::kZOnly;  // initial value per Table 5.2
  StateValue state_ = StateValue::kUnknown;
  Syndrome carried_ = 0;
  // d = 3: the group LUTs, then the state-injection LUTs (group 0's Z
  // fixes commute with X_L, group 1's X fixes with Z_L).  d > 3: one
  // matching decoder per group, and matched_ holds the last match.
  std::vector<LutDecoder> luts_;
  std::vector<MatchingDecoder> matchers_;
  std::vector<int> matched_;
  // Circuit caches, indexed by orientation * 2 + dance mode (or basis);
  // empty until first use.  Pure functions of the layout and the
  // properties above, so not snapshot state.
  mutable std::array<Circuit, 4> esm_;
  mutable std::array<std::vector<int>, 4> esm_order_;
  mutable std::array<Circuit, 4> stabilizer_;
  mutable std::array<std::vector<stab::SparsePauli>, 4> esm_observables_;
  mutable std::array<std::vector<stab::SparsePauli>, 4>
      stabilizer_observables_;
};

}  // namespace qpf::qec
