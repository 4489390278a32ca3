#include "arch/steane_layer.h"

#include <stdexcept>

#include "circuit/error.h"

namespace qpf::arch {

using qec::CheckType;
using qec::SteaneCode;

void SteaneLayer::create_qubits(std::size_t count) {
  lower().create_qubits(count * SteaneCode::kNumQubits);
  logical_state_.assign(lower().num_qubits() / SteaneCode::kNumQubits,
                        BinaryValue::kUnknown);
}

void SteaneLayer::remove_qubits() {
  lower().remove_qubits();
  logical_state_.clear();
  queue_.clear();
}

void SteaneLayer::add(const Circuit& logical_circuit) {
  if (logical_circuit.min_register_size() > logical_state_.size()) {
    throw StackConfigError("SteaneLayer", "logical qubit out of range");
  }
  queue_.push_back(logical_circuit);
}

void SteaneLayer::execute() {
  std::vector<Circuit> pending;
  pending.swap(queue_);
  for (const Circuit& circuit : pending) {
    for (const SlotView slot : circuit) {
      for (const Operation& op : slot) {
        apply_logical(op);
      }
    }
  }
}

BinaryState SteaneLayer::get_state() const { return logical_state_; }

void SteaneLayer::run_lower(const Circuit& circuit) {
  lower().add(circuit);
  lower().execute();
}

std::pair<unsigned, unsigned> SteaneLayer::run_esm_round(Qubit logical) {
  const Qubit base = base_of(logical);
  run_lower(SteaneCode::esm_circuit(base));
  const BinaryState state = lower().get_state();
  unsigned x_syndrome = 0;
  unsigned z_syndrome = 0;
  for (int i = 0; i < 3; ++i) {
    const Qubit xa = SteaneCode::ancilla_qubit(base, CheckType::kX, i);
    const Qubit za = SteaneCode::ancilla_qubit(base, CheckType::kZ, i);
    if (state.at(xa) == BinaryValue::kUnknown ||
        state.at(za) == BinaryValue::kUnknown) {
      throw std::logic_error("SteaneLayer: ancilla not measured");
    }
    if (state.at(xa) == BinaryValue::kOne) {
      x_syndrome |= 1u << i;
    }
    if (state.at(za) == BinaryValue::kOne) {
      z_syndrome |= 1u << i;
    }
  }
  return {x_syndrome, z_syndrome};
}

void SteaneLayer::run_qec_round(Qubit logical) {
  const auto [x_syndrome, z_syndrome] = run_esm_round(logical);
  const Qubit base = base_of(logical);
  Circuit fix{"steane-corrections"};
  TimeSlot slot;
  // X-check syndrome flags Z errors; Z-check syndrome flags X errors.
  // A coinciding X and Z on one qubit merges into a single Y.
  const int z_fix = SteaneCode::decode(x_syndrome);
  const int x_fix = SteaneCode::decode(z_syndrome);
  if (z_fix >= 0 && z_fix == x_fix) {
    slot.add(Operation{GateType::kY, SteaneCode::data_qubit(base, z_fix)});
  } else {
    if (z_fix >= 0) {
      slot.add(Operation{GateType::kZ, SteaneCode::data_qubit(base, z_fix)});
    }
    if (x_fix >= 0) {
      slot.add(Operation{GateType::kX, SteaneCode::data_qubit(base, x_fix)});
    }
  }
  if (!slot.empty()) {
    fix.append_slot(std::move(slot));
    run_lower(fix);
  }
}

void SteaneLayer::initialize(Qubit logical) {
  run_lower(SteaneCode::reset_circuit(base_of(logical)));
  // The first ESM round projects the X checks into a random gauge; the
  // absolute decode in run_qec_round clears it (single-qubit Z fixes
  // every nonzero Hamming syndrome).
  run_qec_round(logical);
  run_qec_round(logical);
  logical_state_.at(logical) = BinaryValue::kZero;
}

int SteaneLayer::measure_logical(Qubit logical) {
  const Qubit base = base_of(logical);
  run_lower(SteaneCode::measure_circuit(base));
  const BinaryState raw = lower().get_state();
  int sign = +1;
  for (int d = 0; d < static_cast<int>(SteaneCode::kNumData); ++d) {
    const Qubit q = SteaneCode::data_qubit(base, d);
    if (raw.at(q) == BinaryValue::kUnknown) {
      throw std::logic_error("SteaneLayer: data qubit not measured");
    }
    if (raw.at(q) == BinaryValue::kOne) {
      sign = -sign;
    }
  }
  logical_state_.at(logical) =
      sign >= 0 ? BinaryValue::kZero : BinaryValue::kOne;
  return sign;
}

bool SteaneLayer::has_observable_errors(Qubit logical) {
  const auto [x_syndrome, z_syndrome] = run_esm_round(logical);
  return x_syndrome != 0 || z_syndrome != 0;
}

int SteaneLayer::measure_logical_stabilizer(Qubit logical,
                                            CheckType basis) {
  const Qubit base = base_of(logical);
  const Qubit ancilla = SteaneCode::ancilla_qubit(base, CheckType::kX, 0);
  Circuit probe{"steane-logical-stabilizer"};
  probe.append_in_new_slot(Operation{GateType::kPrepZ, ancilla});
  if (basis == CheckType::kZ) {
    for (int d = 0; d < static_cast<int>(SteaneCode::kNumData); ++d) {
      probe.append_in_new_slot(
          Operation{GateType::kCnot, SteaneCode::data_qubit(base, d),
                    ancilla});
    }
  } else {
    probe.append_in_new_slot(Operation{GateType::kH, ancilla});
    for (int d = 0; d < static_cast<int>(SteaneCode::kNumData); ++d) {
      probe.append_in_new_slot(
          Operation{GateType::kCnot, ancilla,
                    SteaneCode::data_qubit(base, d)});
    }
    probe.append_in_new_slot(Operation{GateType::kH, ancilla});
  }
  probe.append_in_new_slot(Operation{GateType::kMeasureZ, ancilla});
  run_lower(probe);
  const BinaryState state = lower().get_state();
  if (state.at(ancilla) == BinaryValue::kUnknown) {
    throw std::logic_error("SteaneLayer: stabilizer ancilla not measured");
  }
  return state.at(ancilla) == BinaryValue::kOne ? -1 : +1;
}

void SteaneLayer::apply_logical(const Operation& op) {
  const Qubit q = op.qubit(0);
  switch (op.gate()) {
    case GateType::kPrepZ:
      initialize(q);
      return;
    case GateType::kMeasureZ:
      (void)measure_logical(q);
      return;
    case GateType::kI:
      run_qec_round(q);
      return;
    case GateType::kX:
      run_lower(SteaneCode::logical_x_circuit(base_of(q)));
      if (logical_state_.at(q) != BinaryValue::kUnknown) {
        logical_state_.at(q) = logical_state_.at(q) == BinaryValue::kZero
                                   ? BinaryValue::kOne
                                   : BinaryValue::kZero;
      }
      return;
    case GateType::kZ:
      run_lower(SteaneCode::logical_z_circuit(base_of(q)));
      return;
    case GateType::kH:
      // Steane is self-dual: transversal H is the logical H.
      run_lower(SteaneCode::logical_h_circuit(base_of(q)));
      logical_state_.at(q) = BinaryValue::kUnknown;
      return;
    case GateType::kCnot: {
      run_lower(SteaneCode::logical_cnot_circuit(base_of(op.control()),
                                                 base_of(op.target())));
      const BinaryValue c = logical_state_.at(op.control());
      BinaryValue& t = logical_state_.at(op.target());
      if (c == BinaryValue::kUnknown) {
        t = BinaryValue::kUnknown;
      } else if (c == BinaryValue::kOne && t != BinaryValue::kUnknown) {
        t = t == BinaryValue::kZero ? BinaryValue::kOne : BinaryValue::kZero;
      }
      return;
    }
    default:
      throw StackConfigError(
          "SteaneLayer", "no fault-tolerant implementation for " + op.str());
  }
}

void SteaneLayer::save_state(journal::SnapshotWriter& out) const {
  out.tag("steane-layer");
  out.write_size(logical_state_.size());
  for (const BinaryValue v : logical_state_) {
    out.write_u8(static_cast<std::uint8_t>(v));
  }
  out.write_size(queue_.size());
  for (const Circuit& circuit : queue_) {
    out.write_circuit(circuit);
  }
  lower().save_state(out);
}

void SteaneLayer::load_state(journal::SnapshotReader& in) {
  in.expect_tag("steane-layer");
  const std::size_t count = in.read_size();
  logical_state_.clear();
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint8_t v = in.read_u8();
    if (v > static_cast<std::uint8_t>(BinaryValue::kUnknown)) {
      throw CheckpointError("steane layer snapshot: invalid logical value");
    }
    logical_state_.push_back(static_cast<BinaryValue>(v));
  }
  const std::size_t queued = in.read_size();
  queue_.clear();
  for (std::size_t i = 0; i < queued; ++i) {
    queue_.push_back(in.read_circuit());
  }
  lower().load_state(in);
}

}  // namespace qpf::arch
