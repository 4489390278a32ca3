#include "core/pauli_frame.h"

#include <stdexcept>

#include "circuit/bug_plant.h"
#include "circuit/error.h"

namespace qpf::pf {

namespace {

[[nodiscard]] constexpr std::uint8_t parity_of(PauliRecord r) noexcept {
  return static_cast<std::uint8_t>(has_x(r) != has_z(r) ? 1 : 0);
}

/// The mutation hooks in the record rules, read once per circuit.
struct RuleHooks {
  bool h_row_dropped = plant::bug(1);       // Table 3.4 H row dropped
  bool s_row_wrong = plant::bug(2);         // Table 3.4 S row wrong
  bool cnot_reversed = plant::bug(3);       // Table 3.5 operands reversed
  bool reset_keeps_record = plant::bug(5);  // reset keeps the record
};

/// The primary bank, unguarded: Protection::kNone once the caller has
/// checked the circuit's width against the register.
struct RawBank {
  PauliRecord* records;
  [[nodiscard]] PauliRecord load(Qubit q) const { return records[q]; }
  void store(Qubit q, PauliRecord r) const { records[q] = r; }
};

/// Guarded reads and writes: one verification per operand read, which
/// FrameHealth counts.
struct GuardedBank {
  PauliFrame& frame;
  [[nodiscard]] PauliRecord load(Qubit q) const { return frame.record(q); }
  void store(Qubit q, PauliRecord r) const { frame.set_record(q, r); }
};

[[noreturn]] [[gnu::cold]] void unsupported(const Operation& op) {
  throw StackConfigError("PauliFrame", "unsupported Clifford: " + op.str());
}

/// The record rules of Table 3.1 for a reset, a measurement and a
/// Clifford (Tables 3.4 / 3.5): a reset clears the record, a
/// measurement leaves it, a Clifford conjugates it.  Both paths of
/// process() and apply_clifford() run them.  Throws for any other gate.
template <typename Bank>
void apply_rule(const Operation& op, const RuleHooks& hooks,
                const Bank& bank) {
  const Qubit a = op.control();
  const Qubit b = op.target();
  switch (op.gate()) {
    case GateType::kPrepZ:
      if (!hooks.reset_keeps_record) {
        bank.store(a, PauliRecord::kI);
      }
      return;
    case GateType::kMeasureZ:
      return;
    case GateType::kH: {
      const PauliRecord r = bank.load(a);
      bank.store(a, hooks.h_row_dropped ? r : map_h(r));
      return;
    }
    case GateType::kS:
    case GateType::kSdag: {
      const PauliRecord r = bank.load(a);
      bank.store(a, hooks.s_row_wrong ? r : map_s(r));
      return;
    }
    case GateType::kCnot: {
      if (hooks.cnot_reversed) {
        const PauliRecord rt = bank.load(b);
        const auto [t, c] = map_cnot(rt, bank.load(a));
        bank.store(a, c);
        bank.store(b, t);
        return;
      }
      const PauliRecord rc = bank.load(a);
      const auto [c, t] = map_cnot(rc, bank.load(b));
      bank.store(a, c);
      bank.store(b, t);
      return;
    }
    case GateType::kCz: {
      const PauliRecord rc = bank.load(a);
      const auto [c, t] = map_cz(rc, bank.load(b));
      bank.store(a, c);
      bank.store(b, t);
      return;
    }
    case GateType::kSwap: {
      const PauliRecord ra = bank.load(a);
      const auto [x, y] = map_swap(ra, bank.load(b));
      bank.store(a, x);
      bank.store(b, y);
      return;
    }
    default:
      unsupported(op);
  }
}

/// True when no operation has a Pauli to absorb or a non-Clifford gate
/// to flush before: the rewrite of such a circuit is a copy of it.
[[nodiscard]] bool pauli_free(const Circuit& circuit) noexcept {
  // One bit per gate type in the Pauli or non-Clifford category.
  constexpr std::uint32_t kAbsorbedOrFlushed = [] {
    std::uint32_t mask = 0;
    for (unsigned g = 0; g <= static_cast<unsigned>(GateType::kMeasureZ);
         ++g) {
      const GateCategory c = category(static_cast<GateType>(g));
      if (c == GateCategory::kPauli || c == GateCategory::kNonClifford) {
        mask |= std::uint32_t{1} << g;
      }
    }
    return mask;
  }();
  for (const Operation& op : circuit.operations()) {
    if (((kAbsorbedOrFlushed >> static_cast<unsigned>(op.gate())) & 1) != 0) {
      return false;
    }
  }
  return true;
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
  if (category(op.gate()) != GateCategory::kClifford) {
    unsupported(op);
  }
  apply_rule(op, RuleHooks{}, GuardedBank{*this});
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

const Circuit& PauliFrame::process(const Circuit& circuit, Circuit& out) {
  const RuleHooks hooks;
  const GuardedBank guarded{*this};
  stats_.input_slots += circuit.num_slots();
  stats_.input_gates += circuit.num_operations();
  // A circuit of resets, measurements and Cliffords only moves records
  // and runs as it is.  One wider than the register takes the rewrite,
  // whose guarded reads throw at the first record it lacks.
  if (pauli_free(circuit) && circuit.min_register_size() <= records_.size()) {
    if (protection_ == Protection::kNone) {
      const RawBank raw{records_.data()};
      for (const Operation& op : circuit.operations()) {
        apply_rule(op, hooks, raw);
      }
    } else {
      for (const Operation& op : circuit.operations()) {
        apply_rule(op, hooks, guarded);
      }
    }
    stats_.output_slots += circuit.num_slots();
    stats_.output_gates += circuit.num_operations();
    return circuit;
  }
  out.clear();
  out.set_name(circuit.name());
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
        case GateCategory::kPauli:
          if (op.gate() != GateType::kI) {
            track(op.gate(), op.qubit(0));
          }
          ++stats_.paulis_absorbed;
          break;
        case GateCategory::kNonClifford:
          out.push_op(op);
          break;
        default:
          apply_rule(op, hooks, guarded);
          out.push_op(op);
          break;
      }
    }
    out.close_slot();
  }
  stats_.output_slots += out.num_slots();
  stats_.output_gates += out.num_operations();
  return out;
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
