// Distance-d rotated planar surface code: layout, stabilizers and ESM
// circuits.  At d = 3 this is the SC17 "ninja star" of the thesis (Fig
// 2.1, Table 2.1, Table 5.8); larger odd distances are the thesis'
// future work ("repeat these experiments using a larger distance
// surface code").
//
// Geometry: d x d data qubits; candidate check sites at the (d+1)^2
// cell corners (i, j), each covering the up-to-four data qubits of the
// adjacent cell.  Interior sites are all kept; boundary sites are kept
// on alternating positions so the top/bottom boundaries host X checks
// and the left/right boundaries host Z checks.  Site (i, j) measures an
// X check when i + j is even.  At d = 3:
//   X checks: X0X1X3X4, X1X2, X4X5X7X8, X6X7
//   Z checks: Z0Z3, Z1Z2Z4Z5, Z3Z4Z6Z7, Z5Z8
// Logical operators (§2.6.1): Z_L on the main diagonal and X_L on the
// anti-diagonal (Z0Z4Z8 and X2X4X6 at d = 3) in the normal orientation;
// the chains swap after a logical Hadamard rotates the lattice by 90
// degrees (Fig 2.5).
//
// Register layout: data qubits base+0..base+d^2-1 (row-major), then the
// d^2-1 ancillas in check order: the X checks, then the Z checks, each
// ordered by their lowest data qubit (at d = 3 the ancilla numbering of
// Table 5.8).
//
// ESM schedule (Table 5.8): 8 time slots, with the X-check CNOTs in the
// S pattern of Fig 2.2 and the Z-check CNOTs in the Z pattern of Fig
// 2.3 (different patterns prevent hook errors, see Tomita & Svore);
// conflict-free for every d.
//
// Decoding: MatchingDecoder pairs syndrome defects by minimum-weight
// matching on the check adjacency graph (BFS distances, exact
// subset-DP matching for small defect sets, greedy beyond), with chains
// allowed to terminate on the matching boundary.  It is the spatial
// decoder of qec::NinjaStar beyond d = 3.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "circuit/circuit.h"

namespace qpf::qec {

/// Parity-check basis.
enum class CheckType : std::uint8_t { kX, kZ };

/// Lattice orientation (Table 5.2 "rotation" property).
enum class Orientation : std::uint8_t { kNormal, kRotated };

/// Which ancillas dance during an ESM round (Table 5.2 "dancemode").
enum class DanceMode : std::uint8_t { kAll, kZOnly };

/// CNOT interaction ordering for the ESM schedule.  kMixed is the
/// fault-tolerant choice of Figs 2.2/2.3 (S pattern for X checks, Z
/// pattern for Z checks); kSameS applies the S pattern to both check
/// types — still conflict-free, but hook errors on ancillas can then
/// align with logical operators (ablation target, cf. [19]).
enum class CnotPattern : std::uint8_t { kMixed, kSameS };

[[nodiscard]] constexpr Orientation flip(Orientation o) noexcept {
  return o == Orientation::kNormal ? Orientation::kRotated
                                   : Orientation::kNormal;
}

/// One parity check: an ancilla plus its slot-ordered data neighbours.
struct SurfaceCheck {
  CheckType type;                ///< check basis in the NORMAL orientation
  int ancilla = 0;               ///< local ancilla index = index in checks()
  int site_i = 0;                ///< corner-lattice coordinates
  int site_j = 0;
  std::array<int, 4> data{};     ///< local data index per CNOT slot; -1 idle
  std::vector<int> support;      ///< covered data qubits, ascending

  /// Basis this check measures in the given orientation: a transversal
  /// logical H swaps every ancilla's role.
  [[nodiscard]] CheckType effective_type(Orientation o) const noexcept {
    if (o == Orientation::kNormal) {
      return type;
    }
    return type == CheckType::kX ? CheckType::kZ : CheckType::kX;
  }
};

class SurfaceCodeLayout {
 public:
  static constexpr std::size_t kEsmSlots = 8;  // Table 5.8

  /// Square distance-d patch.  Throws StackConfigError unless distance
  /// is odd and >= 3.
  explicit SurfaceCodeLayout(int distance,
                             CnotPattern pattern = CnotPattern::kMixed);

  /// Rectangular rows x cols patch (both odd, >= 3) — used by lattice
  /// surgery for merged patches.  X distance = rows, Z distance = cols.
  SurfaceCodeLayout(int rows, int cols,
                    CnotPattern pattern = CnotPattern::kMixed);

  /// min(rows, cols): the code distance.
  [[nodiscard]] int distance() const noexcept {
    return rows_ < cols_ ? rows_ : cols_;
  }
  [[nodiscard]] int rows() const noexcept { return rows_; }
  [[nodiscard]] int cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t num_data() const noexcept {
    return static_cast<std::size_t>(rows_) * static_cast<std::size_t>(cols_);
  }
  [[nodiscard]] std::size_t num_checks() const noexcept {
    return checks_.size();
  }
  [[nodiscard]] std::size_t num_qubits() const noexcept {
    return num_data() + num_checks();
  }

  /// The checks: the X checks first, then the Z checks (at d = 3,
  /// indices 0..3 and 4..7).
  [[nodiscard]] const std::vector<SurfaceCheck>& checks() const noexcept {
    return checks_;
  }

  /// Indices (into checks()) of the checks of one basis, ascending.
  [[nodiscard]] const std::vector<int>& checks_of(CheckType type) const noexcept {
    return type == CheckType::kX ? x_checks_ : z_checks_;
  }

  /// Data-qubit chain of the logical X / Z operator of a square patch
  /// in the given orientation.  Throws std::logic_error for a
  /// rectangular patch, which has no diagonal.
  [[nodiscard]] const std::vector<int>& logical_x_data(
      Orientation o = Orientation::kNormal) const;
  [[nodiscard]] const std::vector<int>& logical_z_data(
      Orientation o = Orientation::kNormal) const;

  /// Data qubit that local data qubit `data` pairs with in a transversal
  /// two-qubit gate between lattices rotated relative to each other
  /// (§2.6.1): the 90-degree rotation (r, c) -> (d-1-c, r).
  [[nodiscard]] int rotated_partner(int data) const;

  [[nodiscard]] Qubit data_qubit(Qubit base, int local) const {
    return base + static_cast<Qubit>(local);
  }
  [[nodiscard]] Qubit ancilla_qubit(Qubit base, int ancilla) const {
    return base + static_cast<Qubit>(num_data()) +
           static_cast<Qubit>(ancilla);
  }

  /// One ESM round (Table 5.8).  In dance mode kZOnly only the ancillas
  /// whose effective type is Z participate (partial ESM used after
  /// logical measurement, §5.1.2).
  [[nodiscard]] Circuit esm_circuit(
      Qubit base, Orientation orientation = Orientation::kNormal,
      DanceMode dance = DanceMode::kAll) const;
  /// Local ancilla indices measured by esm_circuit, in measurement
  /// order (check order).
  [[nodiscard]] std::vector<int> esm_measurement_order(
      Orientation orientation = Orientation::kNormal,
      DanceMode dance = DanceMode::kAll) const;

  /// One slot applying `gate` to every data qubit.
  [[nodiscard]] Circuit transversal_circuit(GateType gate, Qubit base,
                                            std::string name) const;
  /// Reset all data qubits to |0>.
  [[nodiscard]] Circuit reset_circuit(Qubit base) const {
    return transversal_circuit(GateType::kPrepZ, base, "reset");
  }
  /// Transversal H on all data (used as |+>_L preparation).
  [[nodiscard]] Circuit transversal_h_circuit(Qubit base) const {
    return transversal_circuit(GateType::kH, base, "transversal-h");
  }
  /// Transversal measurement of all data.
  [[nodiscard]] Circuit measure_circuit(Qubit base) const {
    return transversal_circuit(GateType::kMeasureZ, base, "measure");
  }

  /// Stabilizer-measurement circuit of Fig 5.10 for detecting logical
  /// errors without disturbing the state, borrowing local ancilla 0.
  /// For CheckType::kZ this is the Z_L-chain parity (detects X_L
  /// errors), for kX the X_L-chain parity (detects Z_L errors); the
  /// chains follow the lattice orientation.  Square patches only.
  [[nodiscard]] Circuit logical_stabilizer_circuit(
      Qubit base, CheckType basis,
      Orientation orientation = Orientation::kNormal) const;

 private:
  int rows_;
  int cols_;
  std::vector<SurfaceCheck> checks_;
  std::vector<int> x_checks_;
  std::vector<int> z_checks_;
  std::vector<int> diagonal_;       ///< Z_L in the normal orientation
  std::vector<int> anti_diagonal_;  ///< X_L in the normal orientation
};

/// Minimum-weight-matching decoder for one check basis of the layout.
class MatchingDecoder {
 public:
  MatchingDecoder(const SurfaceCodeLayout& layout, CheckType basis);

  /// Decode a defect set (indices into layout.checks_of(basis), i.e.
  /// positions within the basis group) to the minimum-weight set of
  /// data qubits to flip.  The correction always clears the syndrome.
  [[nodiscard]] std::vector<int> decode(
      const std::vector<int>& defects) const;

  /// Group syndrome bits a set of data errors would produce.
  [[nodiscard]] std::vector<int> signature(
      const std::vector<int>& data_locals) const;

  [[nodiscard]] CheckType basis() const noexcept { return basis_; }

 private:
  static constexpr int kBoundary = -1;

  /// Data qubits along the precomputed shortest chain between two
  /// defects (or a defect and the boundary).
  [[nodiscard]] const std::vector<int>& chain(int from, int to) const;
  [[nodiscard]] int chain_length(int from, int to) const;

  CheckType basis_;
  std::size_t group_size_;
  // dist_[a][b] and path_[a][b]: a, b in 0..group_size (last = boundary).
  std::vector<std::vector<int>> dist_;
  std::vector<std::vector<std::vector<int>>> path_;
  std::vector<std::vector<int>> data_signature_;  // per data local
};

}  // namespace qpf::qec
