#include "circuit/stats.h"

#include <cstdio>

namespace qpf {

GateMix analyze(const Circuit& circuit) noexcept {
  GateMix mix;
  mix.time_slots = circuit.num_slots();
  for (const SlotView slot : circuit) {
    for (const Operation& op : slot) {
      ++mix.total;
      switch (category(op.gate())) {
        case GateCategory::kPauli:
          ++mix.pauli;
          break;
        case GateCategory::kClifford:
          ++mix.clifford;
          break;
        case GateCategory::kNonClifford:
          ++mix.non_clifford;
          break;
        case GateCategory::kInitialization:
          ++mix.preparation;
          break;
        case GateCategory::kMeasurement:
          ++mix.measurement;
          break;
      }
    }
  }
  return mix;
}

std::string to_string(const GateMix& mix) {
  char buffer[160];
  std::snprintf(buffer, sizeof buffer,
                "gates=%zu slots=%zu pauli=%zu (%.1f%%) clifford=%zu t=%zu "
                "prep=%zu meas=%zu",
                mix.total, mix.time_slots, mix.pauli,
                100.0 * mix.pauli_fraction(), mix.clifford, mix.non_clifford,
                mix.preparation, mix.measurement);
  return buffer;
}

}  // namespace qpf
