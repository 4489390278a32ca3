// A single quantum operation: a gate applied to one or two qubits.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "circuit/gate.h"

namespace qpf {

/// Index of a physical or virtual qubit inside a circuit / backend.
using Qubit = std::uint32_t;

/// One gate application.  For two-qubit gates, qubit(0) is the control
/// (for CNOT/CZ) or the first operand (for SWAP) and qubit(1) the target.
class Operation {
 public:
  /// Single-qubit operation.  Throws std::invalid_argument on arity mismatch.
  Operation(GateType g, Qubit q) : gate_(g), q0_(q), q1_(q) {
    if (qpf::arity(g) != 1) {
      throw std::invalid_argument("two-qubit gate requires two operands");
    }
  }

  /// Two-qubit operation.  Throws std::invalid_argument on arity mismatch
  /// or if both operands name the same qubit.
  Operation(GateType g, Qubit control, Qubit target)
      : gate_(g), q0_(control), q1_(target) {
    if (qpf::arity(g) != 2) {
      throw std::invalid_argument("single-qubit gate takes one operand");
    }
    if (control == target) {
      throw std::invalid_argument("two-qubit gate operands must differ");
    }
  }

  [[nodiscard]] GateType gate() const noexcept { return gate_; }
  [[nodiscard]] int arity() const noexcept { return qpf::arity(gate_); }

  /// Operand i (0-based); throws std::out_of_range past arity.
  [[nodiscard]] Qubit qubit(int i) const {
    if (i < 0 || i >= arity()) {
      throw std::out_of_range("operand index out of range");
    }
    return i == 0 ? q0_ : q1_;
  }

  [[nodiscard]] Qubit control() const noexcept { return q0_; }
  [[nodiscard]] Qubit target() const noexcept { return q1_; }

  /// True if this operation acts on qubit q.
  [[nodiscard]] bool touches(Qubit q) const noexcept {
    return q0_ == q || (arity() == 2 && q1_ == q);
  }

  /// Largest qubit index used, for sizing registers.
  [[nodiscard]] Qubit max_qubit() const noexcept {
    return arity() == 2 && q1_ > q0_ ? q1_ : q0_;
  }

  [[nodiscard]] bool operator==(const Operation& other) const noexcept {
    return gate_ == other.gate_ && q0_ == other.q0_ &&
           (arity() == 1 || q1_ == other.q1_);
  }

  /// "cnot q0,q4" style rendering for logs and QASM dumps.
  [[nodiscard]] std::string str() const;

 private:
  GateType gate_;
  // Explicit and zeroed, so that equal operations have equal bytes: a
  // one-qubit operation's q1_ is its qubit, and no byte is padding.
  std::uint8_t padding_[3] = {};
  Qubit q0_;
  Qubit q1_;
};

// FrameCore confirms a memoised skeleton with memcmp over operations.
static_assert(std::has_unique_object_representations_v<Operation>);

}  // namespace qpf
