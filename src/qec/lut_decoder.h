// Rule-based look-up-table decoder for distance-3 surface code patches
// (thesis §5.3.1; the scheme of Tomita & Svore as implemented by [37]).
//
// Spatial part: a 4-bit syndrome (one bit per parity check of a basis)
// maps through a precomputed LUT to the minimum-weight set of data
// qubits whose combined syndrome signature reproduces it.
//
// Temporal part (qec::NinjaStar::decode_window, Fig 5.9): a window
// acts on a check group only when the group's two fresh rounds agree,
// and then decodes that syndrome; otherwise it defers the group and
// carries the last round into the next window.  A measurement error, or
// a fault that strikes mid-round, shows in one round only and is never
// acted on alone.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace qpf::qec {

/// Spatial LUT for one check basis.
class LutDecoder {
 public:
  /// check_masks[i] is the bitmask over the patch's data qubits covered
  /// by check bit i.  If even_overlap_mask is nonzero, every table
  /// entry is additionally constrained to overlap that data-qubit mask
  /// an even number of times — used by state injection, where the
  /// gauge-fix corrections must commute with the logical operators.
  /// Throws std::invalid_argument if some syndrome is not producible
  /// under the constraints.
  explicit LutDecoder(const std::array<std::uint16_t, 4>& check_masks,
                      int num_data_qubits = 9,
                      std::uint16_t even_overlap_mask = 0);

  /// Data-qubit indices to correct for a 4-bit syndrome.
  [[nodiscard]] const std::vector<int>& decode(unsigned syndrome) const;

  /// 4-bit syndrome signature a single error on data qubit q produces.
  [[nodiscard]] unsigned signature(int data_qubit) const;

  /// Combined signature of a set of corrections.
  [[nodiscard]] unsigned signature(const std::vector<int>& data_qubits) const;

 private:
  int num_data_;
  std::vector<unsigned> signatures_;        // per data qubit
  std::array<std::vector<int>, 16> table_;  // per syndrome
};

}  // namespace qpf::qec
