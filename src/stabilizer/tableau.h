// Aaronson–Gottesman stabilizer tableau simulator — the in-process
// stand-in for the paper's CHP backend (thesis §4.1.2).
//
// The tableau stores n destabilizer and n stabilizer generator rows in
// the binary-symplectic representation.  Storage is COLUMN-MAJOR: the
// X (and Z) bits of qubit q across all 2n+1 rows are contiguous words,
// so every Clifford gate is a straight-line AND/XOR loop over
// ceil((2n+1)/64) words instead of 2n per-row bit pokes, and the sign
// column is a packed word vector updated the same way.  Measurement
// uses a word-parallel broadcast rowsum (one source row accumulated
// into every anticommuting row at once, with bit-sliced mod-4 phase
// counters), keeping the O(n^2/w) CHP cost while the per-gate cost
// drops to O(n/w).  A per-qubit Z-eigenvalue hint, kept by every gate
// kernel, lets a measurement or reset whose outcome the tableau already
// knows skip the stabilizer product.  Expectation values are read
// without touching the state: a word-wide XOR of an observable's
// columns finds the rows it anticommutes with, and the sign of its
// stabilizer product comes from its own columns when the product has
// at most two rows.  See DESIGN.md "Word-parallel tableau kernels".
#pragma once

#include <cstdint>
#include <optional>
#include <random>
#include <span>
#include <vector>

#include "circuit/circuit.h"
#include "journal/snapshot.h"
#include "stabilizer/pauli_string.h"

namespace qpf::stab {

/// Measurement outcome (mirrors sv::MeasureResult).
struct MeasureResult {
  bool value = false;
  bool deterministic = false;

  [[nodiscard]] int sign() const noexcept { return value ? -1 : +1; }
};

class Tableau {
 public:
  /// |0...0> on num_qubits qubits.
  explicit Tableau(std::size_t num_qubits, std::uint64_t seed = 1);

  [[nodiscard]] std::size_t num_qubits() const noexcept { return n_; }

  // --- Clifford gate applications -----------------------------------
  void apply_h(Qubit q);
  void apply_s(Qubit q);
  void apply_sdag(Qubit q);
  void apply_x(Qubit q);
  void apply_y(Qubit q);
  void apply_z(Qubit q);
  void apply_cnot(Qubit control, Qubit target);
  void apply_cz(Qubit control, Qubit target);
  void apply_swap(Qubit a, Qubit b);

  /// Apply any Clifford operation from the circuit IR.  Throws
  /// std::invalid_argument for non-Clifford gates (T / T†) and for
  /// prep/measure (use reset / measure).
  void apply_unitary(const Operation& op);

  /// Apply a Pauli string as a unitary (error injection).
  void apply_pauli(const PauliString& p);

  // --- Non-unitary operations ---------------------------------------
  /// Z-basis measurement with collapse.
  MeasureResult measure(Qubit q);

  /// Reset qubit q to |0>.
  void reset(Qubit q);

  /// Execute a full operation of any category; measurement results are
  /// recorded (take_measurements()).
  void execute(const Operation& op);
  void execute(const Circuit& circuit);
  [[nodiscard]] std::vector<MeasureResult> take_measurements();

  // --- Introspection -------------------------------------------------
  /// Expectation of a Pauli string (including its sign) on the current
  /// state: +1 / -1 when it is (anti)stabilized, 0 when the measurement
  /// outcome would be random.
  [[nodiscard]] int expectation(const PauliString& p) const;

  /// Batch form: values[k] = expectation of observables[k]; a Z-only
  /// observable on hinted qubits is answered from the hints.  Reads
  /// only: the state, the RNG and the save() bytes stay as they were;
  /// but it uses member scratch, so two threads must not read one
  /// tableau at once.  Throws std::invalid_argument when the spans
  /// differ in length and std::out_of_range for a qubit outside the
  /// register.
  void expectations(std::span<const SparsePauli> observables,
                    std::span<int> values) const;

  /// True if the signed Pauli string stabilizes the current state.
  [[nodiscard]] bool is_stabilized_by(const PauliString& p) const {
    return expectation(p) == 1;
  }

  /// Stabilizer generator row i (0 <= i < n) as a Pauli string.
  [[nodiscard]] PauliString stabilizer(std::size_t i) const;
  /// Destabilizer generator row i.
  [[nodiscard]] PauliString destabilizer(std::size_t i) const;

  /// Probability that measuring q yields 1: 0, 0.5, or 1.
  [[nodiscard]] double probability_one(Qubit q) const;

  /// The Z-eigenvalue hint of qubit q: v when (-1)^v Z_q is known to be
  /// in the stabilizer group; nullopt after load(), after H on q, and
  /// after a CNOT onto q whose operands were not both hinted.  nullopt
  /// does not mean the outcome is random.  The hint is derived state:
  /// save() omits it and measure(q) uses it to skip the stabilizer
  /// product.
  [[nodiscard]] std::optional<bool> z_hint(Qubit q) const;

  /// The stabilizer generator (index i < n) that measure(q) would
  /// replace: the first one that anticommutes with Z_q.  nullopt when
  /// the outcome is determined.
  [[nodiscard]] std::optional<std::size_t> random_pivot(Qubit q) const;

  // --- State images (arch::FrameCore's reference states) -------------
  /// Words of an image: the X, Z and sign columns, scratch row included.
  [[nodiscard]] std::size_t image_words() const noexcept {
    return (2 * n_ + 1) * cw_;
  }
  /// Write the image into `words` (image_words() of them) and the Z
  /// hints into `hints` (num_qubits() bytes).
  void copy_image(std::uint64_t* words, std::uint8_t* hints) const noexcept;
  /// Overwrite the state with a copy_image() of a tableau of the same
  /// size.  The RNG and the pending measurement records stay.
  void assign_image(const std::uint64_t* words,
                    const std::uint8_t* hints) noexcept;

  // --- Snapshot / restore (crash-safe experiment engine) -------------
  /// Serialize the complete simulator state: tableau bits (column-major
  /// layout, tag "tableau2"), packed sign words, the RNG engine
  /// (exactly), and pending measurement records.
  void save(journal::SnapshotWriter& out) const;

  /// Rebuild a tableau from a save() stream.  Throws
  /// qpf::CheckpointError on corruption, truncation, or another layout
  /// tag (such as the row-major "tableau" of the first kernels).
  [[nodiscard]] static Tableau load(journal::SnapshotReader& in);

 private:
  // Row r in [0, 2n]: destabilizers, stabilizers, then one scratch row.
  // Column q's words live at xs_[q * cw_ .. q * cw_ + cw_); bit r%64 of
  // word r/64 is row r.  rs_ packs the sign column the same way.
  [[nodiscard]] std::uint64_t* x_col(std::size_t q) noexcept {
    return xs_.data() + q * cw_;
  }
  [[nodiscard]] const std::uint64_t* x_col(std::size_t q) const noexcept {
    return xs_.data() + q * cw_;
  }
  [[nodiscard]] std::uint64_t* z_col(std::size_t q) noexcept {
    return zs_.data() + q * cw_;
  }
  [[nodiscard]] const std::uint64_t* z_col(std::size_t q) const noexcept {
    return zs_.data() + q * cw_;
  }
  [[nodiscard]] bool x_bit(std::size_t row, std::size_t q) const noexcept;
  [[nodiscard]] bool z_bit(std::size_t row, std::size_t q) const noexcept;
  [[nodiscard]] bool r_bit(std::size_t row) const noexcept;
  void set_x_bit(std::size_t row, std::size_t q, bool v) noexcept;
  void set_z_bit(std::size_t row, std::size_t q, bool v) noexcept;
  void set_r_bit(std::size_t row, bool v) noexcept;
  void zero_row(std::size_t row) noexcept;
  void copy_row(std::size_t dst, std::size_t src) noexcept;
  /// row h *= row i, tracking the phase (AG "rowsum"); one column at a
  /// time — used on the scratch row where targets are single rows.
  void rowsum(std::size_t h, std::size_t i) noexcept;
  /// Word-parallel broadcast rowsum: accumulate source row p into every
  /// row whose bit is set in `targets` (cw_ words; p must be excluded),
  /// tracking all phases at once via bit-sliced mod-4 counters.
  void rowsum_batch(const std::uint64_t* targets, std::size_t p);
  /// Row index (in [n, 2n)) of the first stabilizer with an X or Y at
  /// q, or 2n when there is none.
  [[nodiscard]] std::size_t scan_pivot(Qubit q) const noexcept;
  /// Mask of the bits of column word w whose row index is in [lo, hi).
  [[nodiscard]] static std::uint64_t range_mask(std::size_t w, std::size_t lo,
                                                std::size_t hi) noexcept;
  void check_qubit(Qubit q) const;
  [[nodiscard]] PauliString row_to_string(std::size_t row) const;

  std::size_t n_;
  std::size_t cw_;  // words per column: ceil((2n+1)/64)
  // Column-major: n_ columns of cw_ words each; rs_ is the sign column.
  std::vector<std::uint64_t> xs_;
  std::vector<std::uint64_t> zs_;
  std::vector<std::uint64_t> rs_;
  // Scratch for rowsum_batch's bit-sliced phase counters (mod 4) and
  // its target mask.
  std::vector<std::uint64_t> phase_lo_;
  std::vector<std::uint64_t> phase_hi_;
  std::vector<std::uint64_t> targets_;
  // Per qubit: v in {0, 1} when (-1)^v Z_q is in the stabilizer group;
  // bit 1 (kUnknownZ in tableau.cpp) set when the kernels lost track.
  std::vector<std::uint8_t> z_hint_;
  std::mt19937_64 rng_;
  std::vector<MeasureResult> measurements_;
  // expectations() scratch, not state: the current observable's
  // anticommuting rows and the destabilizer and stabilizer row masks
  // (cw_ words each), and the rows of its product.
  mutable std::vector<std::uint64_t> read_scratch_;
  mutable std::vector<std::size_t> read_factors_;
};

}  // namespace qpf::stab
