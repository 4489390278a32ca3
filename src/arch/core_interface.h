// The shared Core interface every QPDO layer implements (Table 4.1).
//
// A control stack is a chain of layers ending in a core; every element
// speaks this interface, so layers can be recombined freely (Fig 4.3).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "circuit/error.h"
#include "journal/snapshot.h"
#include "stabilizer/pauli_string.h"
#include "statevector/state.h"

namespace qpf::arch {

/// Classical view of one qubit: 0 / 1 after reset or measurement,
/// unknown after any other gate (thesis §4.2.2, the State structure).
enum class BinaryValue : std::uint8_t { kZero, kOne, kUnknown };

[[nodiscard]] constexpr char to_char(BinaryValue v) noexcept {
  switch (v) {
    case BinaryValue::kZero:
      return '0';
    case BinaryValue::kOne:
      return '1';
    case BinaryValue::kUnknown:
      return 'x';
  }
  return '?';
}

/// Binary state of the whole register.
using BinaryState = std::vector<BinaryValue>;

/// Measured value of qubit q (true = 1); throws std::logic_error when q
/// holds no classical value.
[[nodiscard]] inline bool measured_one(const BinaryState& state, Qubit q) {
  if (state.at(q) == BinaryValue::kUnknown) {
    throw std::logic_error("qubit " + std::to_string(q) + " not measured");
  }
  return state.at(q) == BinaryValue::kOne;
}

/// Table 4.1 — the functions every layer and core supports.
class Core {
 public:
  virtual ~Core() = default;

  /// Allocate `count` additional qubits.  Reinitializes the register
  /// (allocation happens during stack setup, before circuits run).
  virtual void create_qubits(std::size_t count) = 0;

  /// Deallocate every qubit.
  virtual void remove_qubits() = 0;

  /// Queue a circuit for execution.
  virtual void add(const Circuit& circuit) = 0;

  /// Execute every queued circuit in order.
  virtual void execute() = 0;

  /// Per-qubit binary state after the last execute().
  [[nodiscard]] virtual BinaryState get_state() const = 0;

  /// Full quantum state if the backend supports it (QX-style cores),
  /// nullopt otherwise (CHP-style cores).
  [[nodiscard]] virtual std::optional<sv::StateVector> get_quantum_state()
      const = 0;

  /// Current register size.
  [[nodiscard]] virtual std::size_t num_qubits() const = 0;

  /// Read Pauli observables on this element's register without running
  /// anything: values[k] = +1 / -1 when the state after the last
  /// execute() fixes observables[k] (its sign included), 0 when
  /// measuring it would give a random outcome or this element cannot
  /// tell.  The default cannot tell.
  virtual void peek(std::span<const stab::SparsePauli> observables,
                    std::span<int> values) const {
    (void)observables;
    std::fill(values.begin(), values.end(), 0);
  }

  // --- Snapshot capability (crash-safe experiment engine, PR 2) ------
  //
  // Every element of a stack serializes its *own* mutable state and
  // then delegates downward, so one save_state() call at the top of a
  // stack captures the whole chain and one load_state() restores it
  // bit-identically (RNG engines included).  Elements that carry no
  // state simply forward (the Layer default); an element that cannot
  // round-trip reports snapshot_supported() == false and throws a
  // structured qpf::CheckpointError from save_state / load_state.

  /// True when this element — and everything below it — round-trips
  /// exactly through save_state() / load_state().
  [[nodiscard]] virtual bool snapshot_supported() const { return false; }

  /// Serialize this element's mutable state, then the chain below.
  virtual void save_state(journal::SnapshotWriter& out) const {
    (void)out;
    throw CheckpointError("this stack element does not support snapshots");
  }

  /// Restore state saved by save_state().  Throws qpf::CheckpointError
  /// on corruption, truncation, or configuration mismatch.
  virtual void load_state(journal::SnapshotReader& in) {
    (void)in;
    throw CheckpointError("this stack element does not support snapshots");
  }
};

/// Convenience: queue and run one circuit.
inline void run(Core& core, const Circuit& circuit) {
  core.add(circuit);
  core.execute();
}

}  // namespace qpf::arch
