// Pauli strings: signed tensor products of single-qubit Paulis.
//
// Used to express the SC17 stabilizers of Tables 2.1 / 2.2 and to query
// the tableau simulator for stabilizer membership and expectation values.
// SparsePauli lists only the non-identity factors: the form the batch
// reads of a wide register take (Tableau::expectations, Core::peek).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "circuit/operation.h"

namespace qpf::stab {

/// Single-qubit Pauli in the (x, z) binary-symplectic encoding:
/// I=(0,0), X=(1,0), Z=(0,1), Y=(1,1) with the convention Y ~ iXZ.
enum class Pauli : std::uint8_t { kI = 0, kX = 1, kZ = 2, kY = 3 };

/// A Pauli operator on n qubits with a +/-1 sign.
/// (Global factors of i never arise for Hermitian Pauli strings.)
class PauliString {
 public:
  /// Identity on num_qubits qubits.
  explicit PauliString(std::size_t num_qubits);

  /// Parse compact notation like "Z0Z4Z8", "-X2X4X6", "+Y1".
  /// Qubit count is max index + 1 unless num_qubits is larger.
  /// Throws std::invalid_argument on malformed text.
  static PauliString parse(const std::string& text, std::size_t num_qubits = 0);

  [[nodiscard]] std::size_t num_qubits() const noexcept { return paulis_.size(); }

  [[nodiscard]] Pauli pauli(std::size_t q) const { return paulis_.at(q); }
  void set_pauli(std::size_t q, Pauli p) { paulis_.at(q) = p; }

  /// +1 or -1.
  [[nodiscard]] int sign() const noexcept { return negative_ ? -1 : +1; }
  void set_sign(int s);

  /// X / Z component of qubit q in the symplectic encoding.
  [[nodiscard]] bool x_bit(std::size_t q) const;
  [[nodiscard]] bool z_bit(std::size_t q) const;

  /// True if this string commutes with other (qubit counts must match).
  [[nodiscard]] bool commutes_with(const PauliString& other) const;

  /// Number of non-identity tensor factors.
  [[nodiscard]] std::size_t weight() const noexcept;

  /// "Z0Z4Z8" / "-X2X4X6" style text; identity renders as "+I".
  [[nodiscard]] std::string str() const;

  [[nodiscard]] bool operator==(const PauliString& other) const noexcept {
    return negative_ == other.negative_ && paulis_ == other.paulis_;
  }

 private:
  std::vector<Pauli> paulis_;
  bool negative_ = false;
};

/// One non-identity factor of a SparsePauli.
struct PauliTerm {
  Qubit qubit = 0;
  Pauli pauli = Pauli::kI;

  [[nodiscard]] bool operator==(const PauliTerm&) const = default;
};

/// A signed Pauli observable given by its factors, on distinct qubits.
struct SparsePauli {
  std::vector<PauliTerm> terms;
  bool negative = false;

  [[nodiscard]] bool operator==(const SparsePauli&) const = default;
};

}  // namespace qpf::stab
