// Constrained random program generation for the differential fuzzer.
//
// One FuzzCase bundles the circuit shapes the oracle set consumes, all
// derived deterministically from a single case seed:
//   unitary   — Pauli + Clifford gates only, no prep/measure/T.  Runs on
//               the stabilizer backend; mirror / metamorphic / snapshot
//               oracles build their own protocols around it.
//   unitary_t — like unitary plus occasional T / T† (forces frame
//               flushes).  Runs on the state-vector backend only.
//   measured  — Pauli + Clifford with interleaved prep / measurement and
//               a final measure-everything slot, so the binary state
//               after execution is fully known.
//   stream    — unconstrained ISA stream (all gate categories including
//               non-Clifford), consumed by the arbiter routing oracle,
//               which never executes it on a simulator.
//
// Slots are packed randomly but always honor the TimeSlot invariant
// (no qubit twice per slot), exercising the frame's slot bookkeeping.
#pragma once

#include <cstdint>

#include "circuit/circuit.h"
#include "fuzz/seeds.h"

namespace qpf::fuzz {

struct GeneratorOptions {
  std::size_t min_qubits = 2;
  std::size_t max_qubits = 6;
  std::size_t min_slots = 3;
  std::size_t max_slots = 12;
  /// Probability a qubit participates in a given slot.
  double fill = 0.6;
  /// Among participating qubits: chance the op drawn is a Pauli.
  double pauli_fraction = 0.4;
  /// Chance a remaining pair gets a two-qubit gate.
  double two_qubit_fraction = 0.35;
  /// Chance of T / T† where non-Clifford gates are allowed.
  double t_fraction = 0.1;
  /// Chance of prep / measure where mid-circuit non-unitaries are allowed.
  double prep_fraction = 0.06;
  double measure_fraction = 0.08;
};

/// Everything the oracle set needs for one fuzz case.
struct FuzzCase {
  std::uint64_t seed = 0;
  std::size_t num_qubits = 0;
  Circuit unitary;    ///< Pauli + Clifford, unitary only
  Circuit unitary_t;  ///< unitary plus T / T†
  Circuit measured;   ///< with prep / measure, ends in measure-all
  Circuit stream;     ///< unconstrained ISA stream (arbiter oracle)
};

/// Throws std::invalid_argument unless min_qubits >= 2, min_slots >= 1
/// and each max is at least its min.
void check_generator_options(const GeneratorOptions& options);

/// Deterministically expand a case seed into a FuzzCase (checks the
/// options first).
[[nodiscard]] FuzzCase generate_case(std::uint64_t case_seed,
                                     const GeneratorOptions& options);

/// The slot-reversed, gate-inverted circuit (unitary inputs only; throws
/// std::invalid_argument on prep / measure).
[[nodiscard]] Circuit inverse_of(const Circuit& circuit);

/// Mirror protocol around a unitary body: body, then its inverse, then a
/// seed-derived prep layer on a subset of qubits, then measure-all.
/// Every corrected outcome of the result is deterministically zero, so
/// the mirror circuit is a self-checking program for any backend/frame
/// configuration.  The prep subset depends only on (seed, qubit index),
/// so it is stable while a shrinker drops slots from the body.
[[nodiscard]] Circuit mirror_circuit(const Circuit& body, std::size_t num_qubits,
                                     std::uint64_t seed);

/// Number of qubits a circuit needs, floored at `at_least`.
[[nodiscard]] std::size_t register_size(const Circuit& circuit,
                                        std::size_t at_least = 1);

}  // namespace qpf::fuzz
