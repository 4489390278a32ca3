#include "core/pauli_frame.h"

#include <stdexcept>

#include "circuit/bug_plant.h"
#include "circuit/error.h"

namespace qpf::pf {

namespace {

[[nodiscard]] constexpr std::uint8_t parity_of(PauliRecord r) noexcept {
  return static_cast<std::uint8_t>(has_x(r) != has_z(r) ? 1 : 0);
}

}  // namespace

PauliFrame::PauliFrame(std::size_t num_qubits, Protection protection)
    : protection_(protection), records_(num_qubits, PauliRecord::kI) {
  if (num_qubits == 0) {
    throw StackConfigError("PauliFrame", "zero qubits");
  }
  switch (protection_) {
    case Protection::kNone:
      break;
    case Protection::kParity:
      guard_.assign(num_qubits, 0);
      break;
    case Protection::kVote:
      bank_b_.assign(num_qubits, PauliRecord::kI);
      bank_c_.assign(num_qubits, PauliRecord::kI);
      break;
  }
}

PauliRecord PauliFrame::load(Qubit q) const {
  if (protection_ == Protection::kNone) {
    return records_.at(q);  // unguarded hot path
  }
  ++health_.checks;
  if (protection_ == Protection::kParity) {
    const PauliRecord r = records_.at(q);
    if (parity_of(r) == guard_[q]) {
      return r;
    }
    // Detected a record flip; parity cannot tell which bit, so recover
    // via the flush rule: the record becomes I and the lost Pauli turns
    // into a physical error for QEC.
    ++health_.detected;
    ++health_.uncorrectable;
    ++health_.recovery_resets;
    records_[q] = PauliRecord::kI;
    guard_[q] = 0;
    return PauliRecord::kI;
  }
  // Protection::kVote — majority over three banks.
  const PauliRecord a = records_.at(q);
  const PauliRecord b = bank_b_[q];
  const PauliRecord c = bank_c_[q];
  if (a == b && b == c) {
    return a;
  }
  ++health_.detected;
  if (a == b || a == c) {
    ++health_.corrected;
    bank_b_[q] = a;
    bank_c_[q] = a;
    return a;
  }
  if (b == c) {
    ++health_.corrected;
    records_[q] = b;
    return b;
  }
  // All three banks disagree: unrepairable, recover via reset to I.
  ++health_.uncorrectable;
  ++health_.recovery_resets;
  records_[q] = PauliRecord::kI;
  bank_b_[q] = PauliRecord::kI;
  bank_c_[q] = PauliRecord::kI;
  return PauliRecord::kI;
}

void PauliFrame::store(Qubit q, PauliRecord r) const {
  records_.at(q) = r;
  switch (protection_) {
    case Protection::kNone:
      break;
    case Protection::kParity:
      guard_[q] = parity_of(r);
      break;
    case Protection::kVote:
      bank_b_[q] = r;
      bank_c_[q] = r;
      break;
  }
}

std::size_t PauliFrame::scrub() {
  const std::size_t before = health_.detected;
  if (protection_ != Protection::kNone) {
    for (Qubit q = 0; q < records_.size(); ++q) {
      (void)load(q);
    }
    ++health_.scrubs;
  }
  return health_.detected - before;
}

void PauliFrame::track(GateType pauli, Qubit q) {
  if (!is_pauli(pauli)) {
    throw StackConfigError("PauliFrame", "track: not a Pauli gate");
  }
  store(q, track_pauli(load(q), pauli));
}

void PauliFrame::apply_clifford(const Operation& op) {
  switch (op.gate()) {
    case GateType::kH:
      if (plant::bug(1)) {  // mutation hook: drop the Table 3.4 H row
        store(op.qubit(0), load(op.qubit(0)));
        return;
      }
      store(op.qubit(0), map_h(load(op.qubit(0))));
      return;
    case GateType::kS:
    case GateType::kSdag:
      if (plant::bug(2)) {  // mutation hook: wrong Table 3.4 S row
        store(op.qubit(0), load(op.qubit(0)));
        return;
      }
      store(op.qubit(0), map_s(load(op.qubit(0))));
      return;
    case GateType::kCnot: {
      if (plant::bug(3)) {  // mutation hook: Table 3.5 operands reversed
        const auto [rt, rc] = map_cnot(load(op.target()), load(op.control()));
        store(op.control(), rc);
        store(op.target(), rt);
        return;
      }
      const auto [rc, rt] = map_cnot(load(op.control()), load(op.target()));
      store(op.control(), rc);
      store(op.target(), rt);
      return;
    }
    case GateType::kCz: {
      const auto [rc, rt] = map_cz(load(op.control()), load(op.target()));
      store(op.control(), rc);
      store(op.target(), rt);
      return;
    }
    case GateType::kSwap: {
      const auto [ra, rb] = map_swap(load(op.control()), load(op.target()));
      store(op.control(), ra);
      store(op.target(), rb);
      return;
    }
    default:
      throw StackConfigError("PauliFrame", "unsupported Clifford: " + op.str());
  }
}

std::size_t PauliFrame::flush_into(Qubit q, Circuit& out) {
  const PauliRecord r = load(q);
  if (has_x(r)) {
    out.append(GateType::kX, q);
  }
  if (has_z(r)) {
    out.append(GateType::kZ, q);
  }
  store(q, PauliRecord::kI);
  return (has_x(r) ? 1 : 0) + (has_z(r) ? 1 : 0);
}

void correct_values(std::span<const PauliRecord> records,
                    std::span<const stab::SparsePauli> observables,
                    std::span<int> values) {
  // Records and Paulis both keep X in bit 0 and Z in bit 1.
  const unsigned see_z = plant::bug(16) ? 0 : 1;  // mutation hook: ignore Z
  for (std::size_t k = 0; k < observables.size(); ++k) {
    unsigned flip = 0;
    for (const stab::PauliTerm& term : observables[k].terms) {
      if (term.qubit >= records.size()) {
        throw std::out_of_range("correct_values: qubit without a record");
      }
      const auto r = static_cast<unsigned>(records[term.qubit]);
      const auto p = static_cast<unsigned>(term.pauli);
      // X anticommutes with a Z record, Z with an X record.
      flip ^= (p & (r >> 1) & see_z) ^ ((p >> 1) & r & 1);
    }
    values[k] = flip != 0 ? -values[k] : values[k];
  }
}

void PauliFrame::correct_values(std::span<const stab::SparsePauli> observables,
                                std::span<int> values) const {
  pf::correct_values(records_, observables, values);
}

std::vector<Operation> PauliFrame::flush(Qubit q) {
  Circuit out;
  flush_into(q, out);
  return {out.operations().begin(), out.operations().end()};
}

Circuit PauliFrame::flush_all() {
  Circuit out{"pauli-frame-flush"};
  for (Qubit q = 0; q < records_.size(); ++q) {
    stats_.flush_gates_emitted += flush_into(q, out);
  }
  return out;
}

bool PauliFrame::clean() const noexcept {
  for (Qubit q = 0; q < records_.size(); ++q) {
    if (load(q) != PauliRecord::kI) {
      return false;
    }
  }
  return true;
}

void PauliFrame::process(const Circuit& circuit, Circuit& out) {
  out.clear();
  out.set_name(circuit.name());
  stats_.input_slots += circuit.num_slots();
  stats_.input_gates += circuit.num_operations();
  for (const SlotView slot : circuit) {
    // Flush operations for non-Clifford targets in this slot must land
    // on the qubits *before* the slot executes.  The ops of one slot
    // act on distinct qubits, so flushing them ahead of the rest of the
    // slot reads the same records as flushing them in place.
    flush_ops_.clear();
    for (const Operation& op : slot) {
      if (category(op.gate()) == GateCategory::kNonClifford &&
          !plant::bug(4)) {  // mutation hook: skip the Table 3.1 flush
        for (int i = 0; i < op.arity(); ++i) {
          stats_.flush_gates_emitted += flush_into(op.qubit(i), flush_ops_);
        }
      }
    }
    out.append_circuit(flush_ops_);
    for (const Operation& op : slot) {
      switch (category(op.gate())) {
        case GateCategory::kInitialization:
          if (!plant::bug(5)) {  // mutation hook: reset keeps the record
            store(op.qubit(0), PauliRecord::kI);
          }
          out.push_op(op);
          break;
        case GateCategory::kPauli:
          if (op.gate() != GateType::kI) {
            track(op.gate(), op.qubit(0));
          }
          ++stats_.paulis_absorbed;
          break;
        case GateCategory::kClifford:
          apply_clifford(op);
          out.push_op(op);
          break;
        case GateCategory::kMeasurement:
        case GateCategory::kNonClifford:
          out.push_op(op);
          break;
      }
    }
    out.close_slot();
  }
  stats_.output_slots += out.num_slots();
  stats_.output_gates += out.num_operations();
}

namespace {

void write_bank(journal::SnapshotWriter& out,
                const std::vector<PauliRecord>& bank) {
  out.write_size(bank.size());
  if (!bank.empty()) {
    static_assert(sizeof(PauliRecord) == 1);
    out.write_bytes(bank.data(), bank.size());
  }
}

std::vector<PauliRecord> read_bank(journal::SnapshotReader& in) {
  const std::size_t size = in.read_size();
  if (size > in.remaining()) {
    throw CheckpointError("pauli frame snapshot: implausible bank size " +
                          std::to_string(size));
  }
  std::vector<PauliRecord> bank(size);
  if (size != 0) {
    in.read_bytes(bank.data(), size);
  }
  for (const PauliRecord r : bank) {
    if (static_cast<std::uint8_t>(r) > 0b11) {
      throw CheckpointError("pauli frame snapshot: invalid record byte");
    }
  }
  return bank;
}

}  // namespace

void PauliFrame::save(journal::SnapshotWriter& out) const {
  out.tag("pauli-frame");
  out.write_u8(static_cast<std::uint8_t>(protection_));
  if (plant::bug(10) && !records_.empty()) {
    // mutation hook: qubit 0's record is lost in the snapshot
    std::vector<PauliRecord> dropped = records_;
    dropped[0] = PauliRecord::kI;
    write_bank(out, dropped);
  } else {
    write_bank(out, records_);
  }
  out.write_size(guard_.size());
  if (!guard_.empty()) {
    out.write_bytes(guard_.data(), guard_.size());
  }
  write_bank(out, bank_b_);
  write_bank(out, bank_c_);
  out.write_size(health_.checks);
  out.write_size(health_.detected);
  out.write_size(health_.corrected);
  out.write_size(health_.uncorrectable);
  out.write_size(health_.recovery_resets);
  out.write_size(health_.scrubs);
  out.write_size(stats_.input_gates);
  out.write_size(stats_.output_gates);
  out.write_size(stats_.paulis_absorbed);
  out.write_size(stats_.flush_gates_emitted);
  out.write_size(stats_.input_slots);
  out.write_size(stats_.output_slots);
}

PauliFrame PauliFrame::load(journal::SnapshotReader& in) {
  in.expect_tag("pauli-frame");
  const std::uint8_t protection_byte = in.read_u8();
  if (protection_byte > static_cast<std::uint8_t>(Protection::kVote)) {
    throw CheckpointError("pauli frame snapshot: invalid protection byte " +
                          std::to_string(protection_byte));
  }
  const auto protection = static_cast<Protection>(protection_byte);
  std::vector<PauliRecord> records = read_bank(in);
  const std::size_t guard_size = in.read_size();
  if (guard_size > in.remaining()) {
    throw CheckpointError("pauli frame snapshot: implausible guard size");
  }
  std::vector<std::uint8_t> guard(guard_size);
  if (guard_size != 0) {
    in.read_bytes(guard.data(), guard_size);
  }
  std::vector<PauliRecord> bank_b = read_bank(in);
  std::vector<PauliRecord> bank_c = read_bank(in);

  PauliFrame frame(records.size(), protection);
  if (guard.size() != frame.guard_.size() ||
      bank_b.size() != frame.bank_b_.size() ||
      bank_c.size() != frame.bank_c_.size()) {
    throw CheckpointError(
        "pauli frame snapshot: bank sizes inconsistent with protection mode");
  }
  frame.records_ = std::move(records);
  frame.guard_ = std::move(guard);
  frame.bank_b_ = std::move(bank_b);
  frame.bank_c_ = std::move(bank_c);
  frame.health_.checks = in.read_size();
  frame.health_.detected = in.read_size();
  frame.health_.corrected = in.read_size();
  frame.health_.uncorrectable = in.read_size();
  frame.health_.recovery_resets = in.read_size();
  frame.health_.scrubs = in.read_size();
  frame.stats_.input_gates = in.read_size();
  frame.stats_.output_gates = in.read_size();
  frame.stats_.paulis_absorbed = in.read_size();
  frame.stats_.flush_gates_emitted = in.read_size();
  frame.stats_.input_slots = in.read_size();
  frame.stats_.output_slots = in.read_size();
  return frame;
}

std::string PauliFrame::str() const {
  std::string out;
  for (std::size_t q = 0; q < records_.size(); ++q) {
    if (q != 0) {
      out += ' ';
    }
    out += std::to_string(q);
    out += ':';
    out += name(records_[q]);
  }
  return out;
}

}  // namespace qpf::pf
