// Shared pieces of the recorded noise fixtures (tests/golden/
// biased_noise.txt and depolarizing_noise.txt): the 4-qubit fixture
// circuit, FNV-1a, and one fixture point, 200 successive injections of
// a circuit by a fresh model.
#pragma once

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>

#include "circuit/circuit.h"
#include "journal/snapshot.h"
#include "qec/depolarizing.h"

namespace qpf::test {

inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// 64-bit FNV-1a of `bytes`, continuing from `hash`.
template <typename Bytes>
std::uint64_t fnv1a(const Bytes& bytes, std::uint64_t hash = kFnvBasis) {
  for (const auto byte : bytes) {
    hash = (hash ^ static_cast<unsigned char>(byte)) * 0x100000001b3ULL;
  }
  return hash;
}

inline std::string hex64(std::uint64_t value) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(value));
  return hex;
}

/// A prep, one- and two-qubit gates and measurements on q0..q2; q3 is
/// idle in every slot of a 4-qubit register.
inline Circuit noise_fixture_circuit() {
  Circuit c{"fixture"};
  TimeSlot prep;
  prep.add(Operation{GateType::kPrepZ, 0});
  prep.add(Operation{GateType::kPrepZ, 1});
  prep.add(Operation{GateType::kH, 2});
  c.append_slot(prep);
  TimeSlot entangle;
  entangle.add(Operation{GateType::kCnot, 0, 1});
  entangle.add(Operation{GateType::kS, 2});
  c.append_slot(entangle);
  TimeSlot mix;
  mix.add(Operation{GateType::kH, 0});
  mix.add(Operation{GateType::kCz, 2, 1});
  c.append_slot(mix);
  TimeSlot readout;
  readout.add(Operation{GateType::kMeasureZ, 0});
  readout.add(Operation{GateType::kMeasureZ, 1});
  readout.add(Operation{GateType::kMeasureZ, 2});
  c.append_slot(readout);
  return c;
}

/// What one fixture point pins.
struct InjectionRecord {
  std::string circuits;  ///< hex FNV-1a of the concatenated str()
  qec::ErrorTally tally;
  std::string save;      ///< hex FNV-1a of the model's save() bytes
};

/// 200 successive injections of `circuit` on an n-qubit register by a
/// fresh model.
inline InjectionRecord record_injections(const Circuit& circuit,
                                         std::size_t num_qubits, double p,
                                         std::uint64_t seed,
                                         std::optional<double> bias = {}) {
  qec::DepolarizingModel model(p, seed, bias);
  std::uint64_t hash = kFnvBasis;
  for (int i = 0; i < 200; ++i) {
    hash = fnv1a(model.inject(circuit, num_qubits).str(), hash);
  }
  journal::SnapshotWriter out;
  model.save(out);
  return {hex64(hash), model.tally(), hex64(fnv1a(out.bytes()))};
}

}  // namespace qpf::test
