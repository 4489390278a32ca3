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

/// Everything the oracle set needs for one fuzz case.
struct FuzzCase {
  std::uint64_t seed = 0;
  std::size_t num_qubits = 0;
  Circuit unitary;    ///< Pauli + Clifford, unitary only
  Circuit unitary_t;  ///< unitary plus T / T†
  Circuit measured;   ///< with prep / measure, ends in measure-all
  Circuit stream;     ///< unconstrained ISA stream (arbiter oracle)
};

/// Deterministically expand a case seed into a FuzzCase: a register of
/// 2 to 6 qubits, circuits of 3 to 12 slots.
[[nodiscard]] FuzzCase generate_case(std::uint64_t case_seed);

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
