// Steane [[7,1,3]] code substrate (the thesis' SteaneLayer, §4.2.3).
//
// Stabilizers are the classical Hamming-code parities in both bases:
//   g1 = P3 P4 P5 P6,  g2 = P1 P2 P5 P6,  g3 = P0 P2 P4 P6
// for P in {X, Z}.  A single-qubit error's 3-bit syndrome is the binary
// index of the faulty qubit plus one — the code is perfect, so decoding
// is a direct lookup.  Logical X / Z are transversal (X or Z on all
// seven data qubits); H, CNOT and CZ are transversal as well.
//
// Register layout: data qubits base+0..base+6, X-check ancillas
// base+7..base+9, Z-check ancillas base+10..base+12.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "circuit/circuit.h"
#include "qec/surface_code.h"  // CheckType

namespace qpf::qec {

class SteaneCode {
 public:
  static constexpr std::size_t kNumData = 7;
  static constexpr std::size_t kNumAncilla = 6;
  static constexpr std::size_t kNumQubits = kNumData + kNumAncilla;
  static constexpr std::size_t kDistance = 3;

  /// Data-qubit support of stabilizer generator i (0..2), as a bitmask.
  [[nodiscard]] static constexpr std::uint8_t generator_mask(int i) {
    constexpr std::array<std::uint8_t, 3> kMasks{
        0b1111000,  // qubits 3,4,5,6
        0b1100110,  // qubits 1,2,5,6
        0b1010101,  // qubits 0,2,4,6
    };
    return kMasks[static_cast<std::size_t>(i)];
  }

  [[nodiscard]] static Qubit data_qubit(Qubit base, int d) {
    return base + static_cast<Qubit>(d);
  }
  [[nodiscard]] static Qubit ancilla_qubit(Qubit base, CheckType type, int i) {
    const auto offset = type == CheckType::kX ? 7 : 10;
    return base + static_cast<Qubit>(offset + i);
  }

  /// Fault-tolerant-style encoding circuit taking |0>^7 to |0>_L
  /// (projective: prepare, then one ESM round fixes the gauge).
  [[nodiscard]] static Circuit reset_circuit(Qubit base);

  /// One full ESM round: three X checks and three Z checks.
  [[nodiscard]] static Circuit esm_circuit(Qubit base);

  /// Ancilla measurement order of esm_circuit: X checks 0..2 then
  /// Z checks 0..2.
  [[nodiscard]] static std::vector<int> esm_measurement_order();

  /// Transversal logical operations.
  [[nodiscard]] static Circuit logical_x_circuit(Qubit base);
  [[nodiscard]] static Circuit logical_z_circuit(Qubit base);
  [[nodiscard]] static Circuit logical_h_circuit(Qubit base);
  [[nodiscard]] static Circuit logical_cnot_circuit(Qubit control_base,
                                                    Qubit target_base);
  [[nodiscard]] static Circuit measure_circuit(Qubit base);

  /// Decode a 3-bit syndrome to the faulty data qubit, or -1 for a
  /// clean syndrome.
  [[nodiscard]] static int decode(unsigned syndrome);

  /// 3-bit syndrome signature of an error on data qubit d.
  [[nodiscard]] static unsigned signature(int d);
};

}  // namespace qpf::qec
