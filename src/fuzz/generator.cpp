#include "fuzz/generator.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace qpf::fuzz {

namespace {

constexpr GateType kPaulis[] = {GateType::kI, GateType::kX, GateType::kY,
                                GateType::kZ};
constexpr GateType kSingleCliffords[] = {GateType::kH, GateType::kS,
                                         GateType::kSdag};
constexpr GateType kTwoQubit[] = {GateType::kCnot, GateType::kCz,
                                  GateType::kSwap};

constexpr std::size_t kMinQubits = 2;
constexpr std::size_t kMaxQubits = 6;
constexpr std::size_t kMinSlots = 3;
constexpr std::size_t kMaxSlots = 12;
/// Probability a qubit participates in a given slot.
constexpr double kFill = 0.6;
/// Among participating qubits: chance the op drawn is a Pauli.
constexpr double kPauliFraction = 0.4;
/// Chance a remaining pair gets a two-qubit gate.
constexpr double kTwoQubitFraction = 0.35;
/// Chance of T / T† where non-Clifford gates are allowed.
constexpr double kTFraction = 0.1;
/// Chance of prep / measure where mid-circuit non-unitaries are allowed.
constexpr double kPrepFraction = 0.06;
constexpr double kMeasureFraction = 0.08;

/// What a circuit shape is allowed to contain.
struct Palette {
  bool non_clifford = false;
  bool prep_measure = false;
};

/// One randomly packed slot honoring the no-shared-qubit invariant.
TimeSlot random_slot(exec::SplitMix& rng, std::size_t n,
                     const Palette& palette) {
  // Visit qubits in a random order so two-qubit pairings vary.
  std::vector<Qubit> order(n);
  for (std::size_t q = 0; q < n; ++q) {
    order[q] = static_cast<Qubit>(q);
  }
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }

  TimeSlot slot;
  std::vector<bool> used(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    const Qubit q = order[i];
    if (used[q] || !rng.chance(kFill)) {
      continue;
    }
    if (palette.prep_measure && rng.chance(kPrepFraction)) {
      slot.add(Operation{GateType::kPrepZ, q});
      used[q] = true;
      continue;
    }
    if (palette.prep_measure && rng.chance(kMeasureFraction)) {
      slot.add(Operation{GateType::kMeasureZ, q});
      used[q] = true;
      continue;
    }
    if (rng.chance(kPauliFraction)) {
      slot.add(Operation{kPaulis[rng.below(4)], q});
      used[q] = true;
      continue;
    }
    if (palette.non_clifford && rng.chance(kTFraction)) {
      slot.add(Operation{rng.chance(0.5) ? GateType::kT : GateType::kTdag, q});
      used[q] = true;
      continue;
    }
    // Pair with a later unused qubit for a two-qubit gate.
    Qubit partner = q;
    if (rng.chance(kTwoQubitFraction)) {
      for (std::size_t j = i + 1; j < n; ++j) {
        if (!used[order[j]]) {
          partner = order[j];
          break;
        }
      }
    }
    if (partner != q) {
      slot.add(Operation{kTwoQubit[rng.below(3)], q, partner});
      used[q] = true;
      used[partner] = true;
    } else {
      slot.add(Operation{kSingleCliffords[rng.below(3)], q});
      used[q] = true;
    }
  }
  return slot;
}

Circuit random_circuit(exec::SplitMix& rng, std::size_t n,
                       const Palette& palette) {
  const std::size_t slots = kMinSlots + rng.below(kMaxSlots - kMinSlots + 1);
  Circuit circuit;
  for (std::size_t s = 0; s < slots; ++s) {
    circuit.append_slot(random_slot(rng, n, palette));
  }
  return circuit;
}

/// The stream of `case_seed` named `label`.
exec::SplitMix rng_for(std::uint64_t case_seed, const char* label) {
  return exec::SplitMix(exec::task_seed(case_seed, label_hash(label)));
}

}  // namespace

FuzzCase generate_case(std::uint64_t case_seed) {
  FuzzCase fc;
  fc.seed = case_seed;

  exec::SplitMix shape = rng_for(case_seed, "shape");
  fc.num_qubits = kMinQubits + shape.below(kMaxQubits - kMinQubits + 1);

  exec::SplitMix unitary_rng = rng_for(case_seed, "unitary");
  fc.unitary =
      random_circuit(unitary_rng, fc.num_qubits, Palette{false, false});

  exec::SplitMix t_rng = rng_for(case_seed, "unitary-t");
  fc.unitary_t = random_circuit(t_rng, fc.num_qubits, Palette{true, false});

  exec::SplitMix measured_rng = rng_for(case_seed, "measured");
  fc.measured =
      random_circuit(measured_rng, fc.num_qubits, Palette{false, true});
  TimeSlot final_measure;
  for (std::size_t q = 0; q < fc.num_qubits; ++q) {
    final_measure.add(Operation{GateType::kMeasureZ, static_cast<Qubit>(q)});
  }
  fc.measured.append_slot(std::move(final_measure));

  exec::SplitMix stream_rng = rng_for(case_seed, "stream");
  fc.stream = random_circuit(stream_rng, fc.num_qubits, Palette{true, true});
  return fc;
}

Circuit inverse_of(const Circuit& circuit) {
  Circuit out;
  for (std::size_t s = circuit.num_slots(); s-- > 0;) {
    TimeSlot slot;
    for (const Operation& op : circuit.slot(s)) {
      const auto inv = inverse(op.gate());
      if (!inv.has_value()) {
        throw std::invalid_argument("inverse_of: non-unitary operation");
      }
      slot.add(op.arity() == 1
                   ? Operation{*inv, op.qubit(0)}
                   : Operation{*inv, op.qubit(0), op.qubit(1)});
    }
    out.append_slot(std::move(slot));
  }
  return out;
}

Circuit mirror_circuit(const Circuit& body, std::size_t num_qubits,
                       std::uint64_t seed) {
  Circuit full = body;
  full.append_circuit(inverse_of(body));
  // Prep a per-qubit-seeded subset: stable under body shrinking.
  TimeSlot preps;
  for (std::size_t q = 0; q < num_qubits; ++q) {
    if ((exec::task_seed(seed, label_hash("mirror-prep") + q) & 1) != 0) {
      preps.add(Operation{GateType::kPrepZ, static_cast<Qubit>(q)});
    }
  }
  if (!preps.empty()) {
    full.append_slot(std::move(preps));
  }
  TimeSlot measures;
  for (std::size_t q = 0; q < num_qubits; ++q) {
    measures.add(Operation{GateType::kMeasureZ, static_cast<Qubit>(q)});
  }
  full.append_slot(std::move(measures));
  return full;
}

std::size_t register_size(const Circuit& circuit, std::size_t at_least) {
  return std::max(circuit.min_register_size(), at_least);
}

}  // namespace qpf::fuzz
